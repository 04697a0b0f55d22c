// Contract helpers: preconditions, invariants and tiered debug audits.
//
// The library is a control system whose failures should be loud, so the
// baseline checks are enabled in all build types. Three tiers exist:
//
//   SA_REQUIRE / SA_CHECK   always on. SA_REQUIRE guards documented
//                           preconditions of public APIs (caller bugs,
//                           throws PreconditionError); SA_CHECK guards
//                           internal invariants (our bugs, throws
//                           InvariantError). Neither may sit on an O(n^2)
//                           path — they are O(1)/O(n) spot checks.
//   SA_DCHECK               on unless NDEBUG is defined (i.e. on in Debug
//                           builds, compiled out of release builds). The
//                           condition is NOT evaluated when disabled, so
//                           moderately expensive checks are fine here.
//   SA_INVARIANT            on only when STAYAWAY_PARANOID is defined
//                           (cmake -DSTAYAWAY_PARANOID=ON, ./ci.sh
//                           --paranoid). Full-audit tier: O(n^2) matrix
//                           symmetry sweeps, probability-mass sums, range
//                           re-derivations. Not evaluated when disabled.
#pragma once

#include <stdexcept>
#include <string>

namespace stayaway {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails (a bug in this library).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// True when SA_DCHECK conditions are evaluated in this build.
// sa-lint: test-observer(tests expect a throw only where the tier runs)
constexpr bool dchecks_enabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

/// True when SA_INVARIANT audits are evaluated in this build.
// sa-lint: test-observer(tests expect a throw only where the tier runs)
constexpr bool invariants_enabled() {
#ifdef STAYAWAY_PARANOID
  return true;
#else
  return false;
#endif
}

namespace detail {
[[noreturn]] void fail_precondition(const char* expr, const char* file, int line,
                                    const std::string& msg);
[[noreturn]] void fail_invariant(const char* expr, const char* file, int line,
                                 const std::string& msg);
}  // namespace detail

}  // namespace stayaway

/// Check a documented precondition of a public API.
#define SA_REQUIRE(expr, msg)                                                      \
  do {                                                                             \
    if (!(expr)) {                                                                 \
      ::stayaway::detail::fail_precondition(#expr, __FILE__, __LINE__, (msg));     \
    }                                                                              \
  } while (false)

/// Check an internal invariant (always on).
#define SA_CHECK(expr, msg)                                                        \
  do {                                                                             \
    if (!(expr)) {                                                                 \
      ::stayaway::detail::fail_invariant(#expr, __FILE__, __LINE__, (msg));        \
    }                                                                              \
  } while (false)

// The disabled forms still name-check expr and msg (so a disabled check
// cannot rot) but never evaluate them: `false && (expr)` short-circuits.
#define SA_DISABLED_CHECK(expr, msg)                                               \
  do {                                                                             \
    if (false && !static_cast<bool>(expr)) {                                       \
      ::stayaway::detail::fail_invariant(#expr, __FILE__, __LINE__, (msg));        \
    }                                                                              \
  } while (false)

/// Debug-tier check: evaluated only when NDEBUG is not defined.
#ifndef NDEBUG
#define SA_DCHECK(expr, msg) SA_CHECK(expr, msg)
#else
#define SA_DCHECK(expr, msg) SA_DISABLED_CHECK(expr, msg)
#endif

/// Paranoid-tier audit: evaluated only under -DSTAYAWAY_PARANOID=ON.
/// Reserved for expensive full-structure validation (O(n^2) sweeps).
#ifdef STAYAWAY_PARANOID
#define SA_INVARIANT(expr, msg) SA_CHECK(expr, msg)
#else
#define SA_INVARIANT(expr, msg) SA_DISABLED_CHECK(expr, msg)
#endif
