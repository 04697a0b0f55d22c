// In-memory LRU key-value cache — the Memcached stand-in.
//
// §7.1: "The Webservice ... consists of a Memcached layer for in-memory
// data storage and performs analytics, if necessary, before serving the
// data." The simulated Webservice drives this cache with Zipf-sampled
// keys each tick; the measured hit rate feeds its disk-I/O demand and
// service time.
//
// Dense keys: the Webservice's keys are Zipf ranks 0..universe-1, so the
// cache needs no hash table. It keeps one {prev, next} pair of 32-bit
// recency links per key of the universe in a single array (8 bytes a
// key); a key is resident iff its prev is not the kAbsent sentinel. A
// lookup reads its key's own link pair, and moving a hit to the front or
// evicting the tail rewrites only the links of its list neighbours. O(1)
// lookup, insert and eviction with no probing and no allocation after
// construction. replay() runs a tick's keys read-through and requests
// each key's links, and its list neighbours', a few lookups ahead; the
// hints cannot change a hit, a miss or the eviction order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace stayaway::apps {

class LruCache {
 public:
  /// A cache over keys 0..universe-1 holding at most `capacity` of them.
  /// Zero capacity is allowed and caches nothing; a capacity above the
  /// universe is never reached. Requires universe < UINT32_MAX - 1 (the
  /// links are 32-bit and reserve two sentinels).
  LruCache(std::size_t universe, std::size_t capacity);

  /// Looks a key up, promoting it to most-recently-used on a hit.
  /// Requires key < universe.
  bool get(std::uint64_t key);

  /// Inserts (or refreshes) a key, evicting the least-recently-used entry
  /// when full. Requires key < universe.
  void put(std::uint64_t key);

  /// Looks each key up in order and inserts it on a miss (a read-through
  /// fill): the same as `if (!get(k)) put(k)` for each k in turn, so a
  /// key outside the universe throws after the keys before it applied.
  void replay(std::span<const std::uint32_t> keys);

  /// Requires key < universe.
  bool contains(std::uint64_t key) const;
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Lifetime hit rate; 0 before any lookup.
  double hit_rate() const;

 private:
  /// End of the recency list (head's prev, tail's next, empty head/tail).
  static constexpr std::uint32_t kNil = UINT32_MAX;
  /// The prev of a key that is not resident.
  static constexpr std::uint32_t kAbsent = UINT32_MAX - 1;

  struct Link {
    std::uint32_t prev = kAbsent;  // more recent key, kNil, or kAbsent
    std::uint32_t next = kNil;     // less recent key, or kNil
  };

  /// The key as a link index; throws PreconditionError outside the
  /// universe.
  std::uint32_t index(std::uint64_t key) const;
  /// Moves a resident key to the front; false if it is not resident.
  bool touch(std::uint32_t k);
  void unlink(std::uint32_t k);
  void push_front(std::uint32_t k);
  /// Full structural audit (the list walks exactly the resident keys,
  /// its links agree both ways, counts match); paranoid builds run it
  /// after every power-of-two-th insertion.
  bool audit() const;

  std::size_t capacity_;
  std::vector<Link> links_;      // key -> recency links
  std::uint32_t head_ = kNil;    // most recent
  std::uint32_t tail_ = kNil;    // least recent
  std::uint32_t size_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace stayaway::apps
