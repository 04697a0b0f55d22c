// Annotated synchronization primitives (DESIGN.md §16).
//
// std::mutex carries no thread-safety attributes on the toolchains we
// build with, so Clang's -Wthread-safety cannot connect a lock_guard to
// the fields it protects. These thin wrappers close that gap:
//
//   Mutex      a std::mutex declared as a capability; SA_GUARDED_BY
//              expressions name a Mutex member.
//   MutexLock  the RAII guard (scoped capability) — the only way
//              library code takes a Mutex.
//
// Zero-cost: on non-Clang builds every annotation expands to nothing
// and the wrappers inline to the std primitives they hold.
#pragma once

#include <mutex>

#include "util/annotations.hpp"

namespace stayaway::util {

class SA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SA_ACQUIRE() { mu_.lock(); }
  void unlock() SA_RELEASE() { mu_.unlock(); }
  bool try_lock() SA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over a Mutex.
class SA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SA_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace stayaway::util
