#include "apps/lru_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace stayaway::apps {

LruCache::LruCache(std::size_t universe, std::size_t capacity)
    : capacity_(capacity) {
  SA_REQUIRE(universe < kAbsent, "cache universe must fit 32-bit links");
  links_.resize(universe);
}

std::uint32_t LruCache::index(std::uint64_t key) const {
  SA_REQUIRE(key < links_.size(), "key outside the cache's universe");
  return static_cast<std::uint32_t>(key);
}

bool LruCache::touch(std::uint32_t k) {
  if (links_[k].prev == kAbsent) return false;
  if (k != head_) {
    unlink(k);
    push_front(k);
  }
  return true;
}

bool LruCache::get(std::uint64_t key) {
  const bool hit = touch(index(key));
  ++(hit ? hits_ : misses_);
  return hit;
}

void LruCache::put(std::uint64_t key) {
  const std::uint32_t k = index(key);
  if (touch(k) || capacity_ == 0) return;
  if (size_ == capacity_) {
    const std::uint32_t victim = tail_;
    unlink(victim);
    links_[victim].prev = kAbsent;
    --size_;
  }
  push_front(k);
  ++size_;
  ++inserts_;
  SA_INVARIANT(!std::has_single_bit(inserts_) || audit(),
               "lru recency list and resident keys disagree");
}

void LruCache::replay(std::span<const std::uint32_t> keys) {
  // Each key's links are requested kAhead lookups early, and its list
  // neighbours' kNear lookups early; hints only.
  constexpr std::size_t kAhead = 8;
  constexpr std::size_t kNear = 2;
  const std::size_t universe = links_.size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i + kAhead < keys.size() && keys[i + kAhead] < universe) {
      __builtin_prefetch(&links_[keys[i + kAhead]]);
    }
    if (i + kNear < keys.size() && keys[i + kNear] < universe) {
      // A sentinel link clamps to a real slot: a wasted hint, no more.
      const Link link = links_[keys[i + kNear]];
      const std::size_t last = universe - 1;
      __builtin_prefetch(&links_[std::min<std::size_t>(link.prev, last)]);
      __builtin_prefetch(&links_[std::min<std::size_t>(link.next, last)]);
    }
    if (!get(keys[i])) put(keys[i]);
  }
}

bool LruCache::contains(std::uint64_t key) const {
  return links_[index(key)].prev != kAbsent;
}

double LruCache::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  if (total == 0) return 0.0;
  return static_cast<double>(hits_) / static_cast<double>(total);
}

void LruCache::unlink(std::uint32_t k) {
  const Link link = links_[k];
  if (link.prev != kNil) {
    links_[link.prev].next = link.next;
  } else {
    head_ = link.next;
  }
  if (link.next != kNil) {
    links_[link.next].prev = link.prev;
  } else {
    tail_ = link.prev;
  }
}

void LruCache::push_front(std::uint32_t k) {
  links_[k] = Link{kNil, head_};
  if (head_ != kNil) {
    links_[head_].prev = k;
  } else {
    tail_ = k;
  }
  head_ = k;
}

bool LruCache::audit() const {
  // The recency list runs from head_ to tail_ through size_ keys, each
  // prev link pointing back along it...
  std::size_t walked = 0;
  std::uint32_t last = kNil;
  for (std::uint32_t k = head_; k != kNil; k = links_[k].next) {
    if (k >= links_.size() || links_[k].prev != last || ++walked > size_) {
      return false;
    }
    last = k;
  }
  // ...and those are all the resident keys.
  const auto resident = std::count_if(
      links_.begin(), links_.end(),
      [](const Link& link) { return link.prev != kAbsent; });
  return walked == size_ && last == tail_ && size_ <= capacity_ &&
         static_cast<std::size_t>(resident) == size_;
}

}  // namespace stayaway::apps
