// In-memory LRU key-value cache — the Memcached stand-in.
//
// §7.1: "The Webservice ... consists of a Memcached layer for in-memory
// data storage and performs analytics, if necessary, before serving the
// data." The simulated Webservice drives this cache with Zipf-sampled
// keys each tick; the measured hit rate feeds its disk-I/O demand and
// service time.
//
// Flat layout, no per-entry allocation: entries are nodes in parallel
// vectors (key, prev/next recency links as 32-bit indices), and keys are
// found through an open-addressing, linear-probing table of node indices
// (power-of-two size, load <= 0.5, backward-shift deletion, no
// tombstones). A full insert reuses the evicted tail's node. Storage
// grows with size(), not capacity(). O(1) lookup, insert and eviction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stayaway::apps {

class LruCache {
 public:
  /// Capacity in entries; zero capacity is allowed and caches nothing.
  /// Requires capacity < UINT32_MAX (node links are 32-bit).
  explicit LruCache(std::size_t capacity);

  /// Looks a key up, promoting it to most-recently-used on a hit.
  bool get(std::uint64_t key);

  /// Inserts (or refreshes) a key, evicting the least-recently-used entry
  /// when full.
  void put(std::uint64_t key);

  /// Shrinks/expands capacity; shrinking evicts LRU entries immediately.
  void set_capacity(std::size_t capacity);

  bool contains(std::uint64_t key) const;
  std::size_t size() const { return keys_.size(); }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Lifetime hit rate; 0 before any lookup.
  double hit_rate() const;
  void reset_counters();

  void clear();

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// Home slot of a key in the probe table.
  std::size_t home(std::uint64_t key) const;
  /// Probe-table slot holding `key`'s node, or the empty slot ending its
  /// probe chain.
  std::size_t probe(std::uint64_t key) const;
  /// Empties `slot`, shifting later entries of its cluster back so every
  /// probe chain stays unbroken.
  void erase_slot(std::size_t slot);
  void unlink(std::uint32_t node);
  void push_front(std::uint32_t node);
  /// Keeps the `keep` most recent entries as nodes 0..keep-1 in MRU order
  /// and rebuilds the probe table for them.
  void rebuild(std::size_t keep);
  /// Re-indexes every node into a fresh table of `slots` (a power of two).
  void rehash(std::size_t slots);
  /// Full structural audit (list, table and counts agree); paranoid only.
  bool audit() const;

  std::size_t capacity_;
  std::vector<std::uint64_t> keys_;  // node -> key
  std::vector<std::uint32_t> prev_;  // node -> more recent node, or kNil
  std::vector<std::uint32_t> next_;  // node -> less recent node, or kNil
  std::uint32_t head_ = kNil;        // most recent
  std::uint32_t tail_ = kNil;        // least recent
  std::vector<std::uint32_t> slots_;  // probe table: node index or kNil
  unsigned shift_ = 64;               // 64 - log2(slots_.size())
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace stayaway::apps
