// Small reusable worker pool: core::FleetController drives its fleet
// members across one of these, which makes fleet workers the library's
// only parallelism axis (the analyzer's `parallelism-axis` rule keeps it
// that way).
//
// Design constraints, in order:
//   1. Determinism. The work is split into contiguous index ranges whose
//      *values* never depend on thread scheduling — only on the range
//      boundaries — so repeated runs agree.
//   2. Reuse. Workers are parked on a condition variable between calls.
//   3. No dependencies. Plain <thread>/<condition_variable>.
//
// Range functions must not throw: an exception on a worker thread would
// terminate the process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace stayaway::util {

class ThreadPool {
 public:
  /// threads: total parallelism including the calling thread, >= 1.
  /// `ThreadPool(1)` spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

  /// Splits [0, n) into size() contiguous chunks and runs fn on each
  /// concurrently (the caller executes chunk 0). Blocks until every chunk
  /// finished. With size() == 1 this is exactly fn(0, n) on the caller.
  /// Not reentrant: fn must not call back into the same pool (checked —
  /// the alternative is a silent deadlock).
  void for_ranges(std::size_t n, const RangeFn& fn);

  /// True while a parallel section is executing on this pool.
  // sa-lint: test-observer(tests check the reentrancy guard)
  bool in_parallel() const {
    return in_parallel_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::size_t slot);
  static std::size_t chunk_begin(std::size_t chunk, std::size_t n,
                                 std::size_t parts) {
    return chunk * n / parts;
  }

  // sa-lint: unguarded(filled in the constructor before any dispatch and
  // joined in the destructor; workers read its size only after a
  // generation handshake through mu_ established happens-before)
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::uint64_t generation_ SA_GUARDED_BY(mu_) = 0;
  std::size_t remaining_ SA_GUARDED_BY(mu_) = 0;
  const RangeFn* fn_ SA_GUARDED_BY(mu_) = nullptr;
  std::size_t n_ SA_GUARDED_BY(mu_) = 0;
  bool stop_ SA_GUARDED_BY(mu_) = false;
  std::atomic<bool> in_parallel_{false};
};

}  // namespace stayaway::util
