#include "apps/lru_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace stayaway::apps {

namespace {

constexpr std::size_t kMinSlots = 16;

/// Smallest power-of-two table keeping `entries` at load <= 0.5.
std::size_t slots_for(std::size_t entries) {
  return std::bit_ceil(std::max(kMinSlots, 2 * entries));
}

}  // namespace

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {
  SA_REQUIRE(capacity < kNil, "capacity must fit the cache's 32-bit links");
  rehash(kMinSlots);
}

std::size_t LruCache::home(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi spread dense and
  // strided keys alike.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::size_t LruCache::probe(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = home(key);
  while (slots_[s] != kNil && keys_[slots_[s]] != key) s = (s + 1) & mask;
  return s;
}

bool LruCache::get(std::uint64_t key) {
  std::uint32_t node = slots_[probe(key)];
  if (node == kNil) {
    ++misses_;
    return false;
  }
  if (node != head_) {
    unlink(node);
    push_front(node);
  }
  ++hits_;
  return true;
}

void LruCache::put(std::uint64_t key) {
  std::size_t s = probe(key);
  std::uint32_t node = slots_[s];
  if (node != kNil) {
    if (node != head_) {
      unlink(node);
      push_front(node);
    }
    return;
  }
  if (capacity_ == 0) return;
  if (keys_.size() == capacity_) {
    // Full: the tail's node is reused for the new key. Deleting its slot
    // may shift the new key's probe chain, so probe again afterwards.
    node = tail_;
    erase_slot(probe(keys_[node]));
    unlink(node);
    keys_[node] = key;
    s = probe(key);
  } else {
    if (2 * (keys_.size() + 1) > slots_.size()) {
      rehash(2 * slots_.size());
      s = probe(key);
    }
    node = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    prev_.push_back(kNil);
    next_.push_back(kNil);
  }
  slots_[s] = node;
  push_front(node);
  SA_INVARIANT(keys_.size() <= capacity_ && prev_[head_] == kNil &&
                   next_[tail_] == kNil,
               "lru head/tail links or size inconsistent");
}

void LruCache::set_capacity(std::size_t capacity) {
  SA_REQUIRE(capacity < kNil, "capacity must fit the cache's 32-bit links");
  capacity_ = capacity;
  if (keys_.size() > capacity_) rebuild(capacity_);
}

bool LruCache::contains(std::uint64_t key) const {
  return slots_[probe(key)] != kNil;
}

double LruCache::hit_rate() const {
  std::uint64_t total = hits_ + misses_;
  if (total == 0) return 0.0;
  return static_cast<double>(hits_) / static_cast<double>(total);
}

void LruCache::reset_counters() {
  hits_ = 0;
  misses_ = 0;
}

void LruCache::clear() { rebuild(0); }

void LruCache::erase_slot(std::size_t slot) {
  // Backward-shift deletion: walk the cluster after the hole and move
  // back every entry whose home does not lie cyclically in (hole, j].
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask; slots_[j] != kNil;
       j = (j + 1) & mask) {
    std::size_t h = home(keys_[slots_[j]]);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kNil;
}

void LruCache::unlink(std::uint32_t node) {
  std::uint32_t p = prev_[node];
  std::uint32_t n = next_[node];
  if (p != kNil) {
    next_[p] = n;
  } else {
    head_ = n;
  }
  if (n != kNil) {
    prev_[n] = p;
  } else {
    tail_ = p;
  }
}

void LruCache::push_front(std::uint32_t node) {
  prev_[node] = kNil;
  next_[node] = head_;
  if (head_ != kNil) {
    prev_[head_] = node;
  } else {
    tail_ = node;
  }
  head_ = node;
}

void LruCache::rebuild(std::size_t keep) {
  std::vector<std::uint64_t> survivors;
  survivors.reserve(std::min(keep, keys_.size()));
  for (std::uint32_t n = head_; n != kNil && survivors.size() < keep;
       n = next_[n]) {
    survivors.push_back(keys_[n]);
  }
  const auto count = static_cast<std::uint32_t>(survivors.size());
  keys_ = std::move(survivors);
  prev_.assign(count, kNil);
  next_.assign(count, kNil);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i > 0) prev_[i] = i - 1;
    if (i + 1 < count) next_[i] = i + 1;
  }
  head_ = count > 0 ? 0 : kNil;
  tail_ = count > 0 ? count - 1 : kNil;
  rehash(slots_for(count));
}

void LruCache::rehash(std::size_t slots) {
  slots_.assign(slots, kNil);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  const auto count = static_cast<std::uint32_t>(keys_.size());
  for (std::uint32_t n = 0; n < count; ++n) slots_[probe(keys_[n])] = n;
  SA_INVARIANT(audit(), "lru list, probe table and size disagree");
}

bool LruCache::audit() const {
  const std::size_t n = keys_.size();
  if (n > capacity_ || prev_.size() != n || next_.size() != n) return false;
  if ((head_ == kNil) != (n == 0) || (tail_ == kNil) != (n == 0)) return false;
  // The recency list visits every node once, each prev link pointing
  // back along it.
  std::size_t walked = 0;
  std::uint32_t last = kNil;
  for (std::uint32_t i = head_; i != kNil; i = next_[i]) {
    if (i >= n || prev_[i] != last || ++walked > n) return false;
    last = i;
  }
  if (walked != n || last != tail_) return false;
  std::size_t occupied = 0;
  for (std::uint32_t node : slots_) {
    if (node == kNil) continue;
    if (node >= n) return false;
    ++occupied;
  }
  if (occupied != n || 2 * n > slots_.size()) return false;
  // Every key is reachable along its own probe chain, at its own node.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (slots_[probe(keys_[i])] != i) return false;
  }
  return true;
}

}  // namespace stayaway::apps
