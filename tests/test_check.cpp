// Tests for the contract API itself (src/util/check.hpp): throw
// semantics, message formatting, and — critically — that the disabled
// tiers never evaluate their condition, so an SA_DCHECK in a release
// build or an SA_INVARIANT outside a paranoid build costs nothing.
#include <gtest/gtest.h>

#include <string>

#include "util/check.hpp"

namespace stayaway {
namespace {

TEST(Check, RequireThrowsPreconditionErrorWhenFalse) {
  EXPECT_NO_THROW(SA_REQUIRE(1 + 1 == 2, "arithmetic works"));
  EXPECT_THROW(SA_REQUIRE(1 + 1 == 3, "arithmetic broke"), PreconditionError);
  // PreconditionError is an invalid_argument: callers can catch broadly.
  EXPECT_THROW(SA_REQUIRE(false, "x"), std::invalid_argument);
}

TEST(Check, CheckThrowsInvariantErrorWhenFalse) {
  EXPECT_NO_THROW(SA_CHECK(true, "fine"));
  EXPECT_THROW(SA_CHECK(false, "broken"), InvariantError);
  EXPECT_THROW(SA_CHECK(false, "broken"), std::logic_error);
}

TEST(Check, MessageCarriesExpressionLocationAndText) {
  try {
    SA_CHECK(2 < 1, "two is not less than one");
    FAIL() << "SA_CHECK(false) must throw";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant failed"), std::string::npos) << what;
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("two is not less than one"), std::string::npos)
        << what;
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find(':'), std::string::npos) << what;
  }
}

TEST(Check, PreconditionMessageNamesThePrecondition) {
  try {
    SA_REQUIRE(false, "caller misuse");
    FAIL() << "SA_REQUIRE(false) must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition failed"), std::string::npos) << what;
    EXPECT_NE(what.find("caller misuse"), std::string::npos) << what;
  }
}

TEST(Check, DcheckEvaluatesOnlyInDebugBuilds) {
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return true;
  };
  SA_DCHECK(touch(), "side effect probe");
  EXPECT_EQ(evaluations, dchecks_enabled() ? 1 : 0);
  if (dchecks_enabled()) {
    EXPECT_THROW(SA_DCHECK(false, "debug check"), InvariantError);
  } else {
    EXPECT_NO_THROW(SA_DCHECK(false, "compiled out"));
  }
}

TEST(Check, InvariantEvaluatesOnlyInParanoidBuilds) {
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return true;
  };
  SA_INVARIANT(touch(), "side effect probe");
  EXPECT_EQ(evaluations, invariants_enabled() ? 1 : 0);
  if (invariants_enabled()) {
    EXPECT_THROW(SA_INVARIANT(false, "paranoid audit"), InvariantError);
  } else {
    EXPECT_NO_THROW(SA_INVARIANT(false, "compiled out"));
  }
}

TEST(Check, DisabledChecksStillRejectAlwaysFalseAtRuntimeNever) {
  // A disabled check must be an expression statement usable anywhere a
  // statement is: inside an if with no braces, inside a loop, etc.
  if (true)
    SA_DCHECK(true, "dangling-else safe");
  else
    SA_DCHECK(false, "never reached");
  for (int i = 0; i < 2; ++i) SA_INVARIANT(true, "loop body");
  SUCCEED();
}

}  // namespace
}  // namespace stayaway
