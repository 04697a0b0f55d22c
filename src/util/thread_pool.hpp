// One run's worker team: harness::run_fleet drives its hosts on one of
// these, which makes fleet workers the library's only parallelism axis
// (the analyzer's `parallelism-axis` rule keeps it that way).
//
// A team lives for exactly one call. What each worker does — which
// slice of the work it owns, where the workers meet — is the body's
// business, so results depend only on how the caller splits its work,
// never on thread scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace stayaway::util {

/// Runs body(w) once for every w in [0, threads): the caller runs worker
/// 0, threads - 1 fresh threads run the rest, and the call returns once
/// every one of them has returned. `run_team(1, body)` starts no thread
/// and is exactly body(0). The body must not throw: an exception on a
/// worker thread terminates the process.
void run_team(std::size_t threads,
              const std::function<void(std::size_t)>& body);

}  // namespace stayaway::util
