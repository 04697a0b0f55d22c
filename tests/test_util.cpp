// Unit tests for src/util: contracts, RNG (and its `seed draws`
// snapshot), CSV, strings (including a
// differential test of format_double_exact), ASCII plotting.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"
#include "util/strings.hpp"

namespace stayaway {
namespace {

// ---------------------------------------------------------------- check
TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(SA_REQUIRE(false, "boom"), PreconditionError);
}

TEST(Check, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(SA_REQUIRE(true, "ok"));
  EXPECT_NO_THROW(SA_CHECK(true, "ok"));
}

TEST(Check, MessageContainsContext) {
  try {
    SA_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformDegenerateRangeReturnsBound) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.uniform(2.5, 2.5), 2.5);
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(6);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW(rng.index(0), PreconditionError);
}

TEST(Rng, NormalMeanApproximatelyCorrect) {
  Rng rng(8);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.normal(5.0, 2.0);
  EXPECT_NEAR(acc / n, 5.0, 0.1);
}

TEST(Rng, NormalZeroSigmaIsMean) {
  Rng rng(9);
  EXPECT_DOUBLE_EQ(rng.normal(1.25, 0.0), 1.25);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_THROW(rng.chance(1.5), PreconditionError);
}

TEST(Rng, ChanceFrequencyTracksProbability) {
  Rng rng(12);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, RawOutputsEqualTheEngine) {
  // Rng is the URBG its helpers draw through: its raw stream must be
  // std::mt19937_64's, so wrapping it changed no historical draw.
  for (std::uint64_t seed : {0ULL, 7ULL, 0xfeedfaceULL, ~0ULL}) {
    Rng rng(seed);
    std::mt19937_64 engine(seed);
    for (int i = 0; i < 5000; ++i) ASSERT_EQ(rng(), engine()) << seed;
    EXPECT_EQ(rng.draws(), 5000u);
    EXPECT_EQ(rng.seed(), seed);
  }
  EXPECT_EQ(Rng::min(), std::mt19937_64::min());
  EXPECT_EQ(Rng::max(), std::mt19937_64::max());
}

TEST(Rng, HelpersDrawTheEngineStream) {
  // Each helper draws through the counting operator(): a helper over an
  // Rng equals the same std:: distribution over a bare engine.
  Rng rng(21);
  std::mt19937_64 engine(21);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.uniform(),
              std::uniform_real_distribution<double>(0.0, 1.0)(engine));
    ASSERT_EQ(rng.index(17),
              std::uniform_int_distribution<std::size_t>(0, 16)(engine));
    ASSERT_EQ(rng.normal(1.0, 2.0),
              std::normal_distribution<double>(1.0, 2.0)(engine));
  }
}

TEST(Rng, ResumedMatchesEngineDiscardAtBlockEdges) {
  // resumed skips whole 312-word blocks by refilling without tempering:
  // around every block edge it must land where the engine's discard
  // does, with the same count.
  for (std::uint64_t d : {0u, 1u, 311u, 312u, 313u, 623u, 624u, 625u, 9684u}) {
    Rng rng = Rng::resumed(77, d);
    std::mt19937_64 engine(77);
    engine.discard(d);
    EXPECT_EQ(rng.draws(), d);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), engine()) << d << " " << i;
  }
}

TEST(Rng, CopyMidBlockContinuesTheStream) {
  // A copy carries the whole state, including the position inside the
  // current block, and from there the two draw the same outputs.
  Rng original(3);
  for (int i = 0; i < 500; ++i) original();
  Rng copy = original;
  EXPECT_EQ(copy.draws(), original.draws());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(copy(), original()) << i;
}

/// `rng` written by StateIO::rng and read back into a fresh Rng.
Rng snapshot_round_trip(Rng& rng) {
  std::string body;
  util::StateIO::writer(body).rng("r", rng);
  Rng restored(0);
  util::StateIO reader = util::StateIO::reader(body);
  reader.rng("r", restored);
  reader.finish();
  return restored;
}

TEST(Rng, SnapshotIsSeedAndDraws) {
  Rng rng(99);
  for (int i = 0; i < 3; ++i) rng.uniform();
  std::string body;
  util::StateIO::writer(body).rng("r", rng);
  EXPECT_EQ(body, "r = 99 3\n");
}

TEST(Rng, SnapshotAfterEveryHelperResumesTheStream) {
  // After each helper — including the variable-draw ones (index's
  // rejection loop, normal's polar method) — a restored Rng must emit
  // the same next 10k draws as the original.
  const std::vector<std::pair<const char*, void (*)(Rng&)>> helpers = {
      {"uniform", [](Rng& r) { r.uniform(); }},
      {"uniform(lo,hi)", [](Rng& r) { r.uniform(-3.0, 5.0); }},
      {"index", [](Rng& r) { r.index(3); }},
      {"normal", [](Rng& r) { r.normal(0.0, 1.0); }},
      {"chance", [](Rng& r) { r.chance(0.3); }},
  };
  for (const auto& [name, helper] : helpers) {
    SCOPED_TRACE(name);
    Rng original(1234);
    for (int i = 0; i < 37; ++i) helper(original);
    Rng restored = snapshot_round_trip(original);
    EXPECT_EQ(restored.seed(), original.seed());
    EXPECT_EQ(restored.draws(), original.draws());
    for (int i = 0; i < 10000; ++i) ASSERT_EQ(restored(), original()) << i;
  }
}

TEST(Rng, SnapshotRejectsMalformedAndOverCapDraws) {
  // Restoring costs O(draws), so a count past the cap must fail rather
  // than spin.
  const std::string over = std::to_string(util::kMaxRngDraws + 1);
  for (const std::string& value :
       {std::string("garbage"), std::string("7"), std::string("7 x"),
        std::string("7 -1"), std::string("7 1 2"), std::string(""),
        "7 " + over, std::string("7 18446744073709551616")}) {
    SCOPED_TRACE(value);
    Rng rng(0);
    const std::string body = "r = " + value + "\n";
    util::StateIO reader = util::StateIO::reader(body);
    EXPECT_THROW(reader.rng("r", rng), util::StateCodecError);
  }
}

// -------------------------------------------------------------- strings
TEST(Strings, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5, 4), "1.5");
  EXPECT_EQ(format_double(2.0, 4), "2");
  EXPECT_EQ(format_double(0.001, 6), "0.001");
  EXPECT_EQ(format_double(-0.0, 3), "0");
}

/// The snprintf/strtod loop format_double_exact used before it moved to
/// <charconv>: the oracle the differential test below holds it to.
std::string reference_format_double_exact(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0.0 ? "inf" : "-inf";
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Compares format_double_exact against the oracle on every value and
/// checks that the text parses back to the same bits; reports the first
/// few mismatches instead of one failure per value.
void expect_matches_reference(const std::vector<double>& values,
                              const char* what) {
  std::size_t mismatches = 0;
  for (double v : values) {
    const std::string got = format_double_exact(v);
    const std::string want = reference_format_double_exact(v);
    const double back = std::strtod(got.c_str(), nullptr);
    const bool round_trips = std::isnan(v)
                                 ? std::isnan(back)
                                 : std::memcmp(&back, &v, sizeof v) == 0;
    if (got != want || !round_trips) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << ": " << want << " (oracle) vs " << got;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << " over " << values.size() << " values";
}

// One million values in all, split three ways so ctest runs them in
// parallel.
TEST(Strings, FormatDoubleExactMatchesOracleOnRandomBitPatterns) {
  std::mt19937_64 rng(20140919);
  std::vector<double> bits(500000);
  for (double& v : bits) {
    const std::uint64_t pattern = rng();
    std::memcpy(&v, &pattern, sizeof v);
  }
  expect_matches_reference(bits, "random bit patterns");
}

TEST(Strings, FormatDoubleExactMatchesOracleOnUniformValues) {
  std::mt19937_64 rng(20140920);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> uniform(250000);
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    // Half in [0, 1), half spread over [-1e6, 1e6).
    uniform[i] = i % 2 == 0 ? unit(rng) : (unit(rng) * 2.0 - 1.0) * 1e6;
  }
  expect_matches_reference(uniform, "uniform values");
}

TEST(Strings, FormatDoubleExactMatchesOracleOnScaledValues) {
  // Every binary exponent, subnormals included.
  std::mt19937_64 rng(20140921);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  std::uniform_int_distribution<int> exponent(-1074, 1023);
  std::vector<double> scaled(250000);
  for (double& v : scaled) {
    v = std::ldexp(mantissa(rng), exponent(rng));
    if (rng() % 2 == 0) v = -v;
  }
  expect_matches_reference(scaled, "ldexp-scaled values");
}

TEST(Strings, FormatDoubleExactEdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const std::vector<double> edges = {
      0.0,       -0.0,       denorm_min, -denorm_min,
      std::nextafter(DBL_MIN, 0.0),      DBL_MIN,
      -DBL_MIN,  DBL_MAX,    -DBL_MAX,   1e15,
      1e16,      1e17,       1e21,       0.1 + 0.2,
      kInf,      -kInf,      kNan,       -kNan,
      1.0 / 3.0, 123456789012345678.0};
  expect_matches_reference(edges, "edge cases");
  EXPECT_EQ(format_double_exact(0.0), "0");
  EXPECT_EQ(format_double_exact(-0.0), "-0");
  EXPECT_EQ(format_double_exact(denorm_min), "4.94065645841247e-324");
  EXPECT_EQ(format_double_exact(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(format_double_exact(1e15), "1e+15");
  EXPECT_EQ(format_double_exact(1e21), "1e+21");
  EXPECT_EQ(format_double_exact(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_double_exact(kInf), "inf");
  EXPECT_EQ(format_double_exact(-kInf), "-inf");
  EXPECT_EQ(format_double_exact(-kNan), "nan");
}

TEST(Strings, FormatDoubleExactMatchesOracleOnEverySubnormalBinade) {
  // Subnormals take the precision loop, not the shortest-digits layout:
  // every binade, several mantissas each, both signs.
  std::vector<double> subnormals;
  for (int exponent = -1074; exponent <= -1023; ++exponent) {
    for (double mantissa : {1.0, 1.0 + 0x1p-52, 1.1, 1.25, 1.5, 1.7,
                            1.9999999999999998}) {
      const double v = std::ldexp(mantissa, exponent);
      subnormals.push_back(v);
      subnormals.push_back(-v);
      subnormals.push_back(std::nextafter(v, 0.0));
    }
  }
  subnormals.push_back(std::nextafter(DBL_MIN, 0.0));
  expect_matches_reference(subnormals, "subnormal binades");
}

TEST(Strings, FormatDoubleExactIntegerFastPath) {
  std::vector<double> integers = {0.0,           -0.0,       1.0,
                                  -1.0,          7.0,        480.0,
                                  1e15 - 1.0,    -(1e15 - 1.0),
                                  1e15,          -1e15,      1e16,
                                  -1e16,         1e15 + 1.0, 9007199254740992.0};
  std::mt19937_64 rng(20140922);
  for (int i = 0; i < 20000; ++i) {
    const auto digits = static_cast<int>(rng() % 16);
    const double v = std::floor(static_cast<double>(rng() % 1000000007) *
                                std::pow(10.0, digits - 9));
    integers.push_back(v);
    integers.push_back(-v);
  }
  expect_matches_reference(integers, "integer-valued doubles");
  EXPECT_EQ(format_double_exact(-0.0), "-0");
  EXPECT_EQ(format_double_exact(480.0), "480");
  EXPECT_EQ(format_double_exact(1e15 - 1.0), "999999999999999");
  EXPECT_EQ(format_double_exact(-(1e15 - 1.0)), "-999999999999999");
  EXPECT_EQ(format_double_exact(1e16), "1e+16");
}

TEST(Strings, FormatDoubleExactMatchesOracleAroundPowersOfTen) {
  // The fixed/scientific switch sits at 1e-5 and at 1e15..1e17.
  std::vector<double> values;
  for (int exponent = -5; exponent <= 22; ++exponent) {
    std::string text = "1e";
    text += std::to_string(exponent);
    const double p = std::stod(text);
    for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, DBL_MAX)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  expect_matches_reference(values, "powers of ten and neighbours");
}

TEST(Strings, FormatDoubleExactMatchesOracleOnEveryPowerOfTwo) {
  // A power of two has a rounding interval twice as wide above it as
  // below, so a %.16g text can miss while a farther 16-digit one still
  // round-trips: every normal ±2^k, and the subnormal ones too.
  std::vector<double> powers;
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double v = std::ldexp(1.0, exponent);
    powers.push_back(v);
    powers.push_back(-v);
  }
  expect_matches_reference(powers, "powers of two");
  EXPECT_EQ(format_double_exact(std::ldexp(1.0, -44)),
            "5.6843418860808015e-14");
}

TEST(Strings, AppendDoubleExactKeepsThePrefix) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  for (double v : {0.1, -0.0, 42.0, 1e-7, 1e300, 0.1 + 0.2, denorm_min,
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::infinity()}) {
    std::string out = "key = 3 ";
    append_double_exact(out, v);
    std::string want = "key = 3 ";
    want += format_double_exact(v);
    EXPECT_EQ(out, want);
  }
  std::string out = "n=";
  append_u64(out, UINT64_MAX);
  EXPECT_EQ(out, "n=18446744073709551615");
}

// ------------------------------------------------------------ statecodec
TEST(ParseExactDouble, AcceptsAndRejectsExactlyWhatStrtodDoes) {
  // from_chars answers first; whatever it leaves (signs, spaces, hex,
  // out-of-range values, NaN payloads) falls back to strtod, so the
  // verdicts and the bits are strtod's.
  for (const char* text :
       {" 1", "+1", "0x1p3", "1e999", "-1e999", "1e-400",
        "4.94065645841247e-324", "inf", "INF", "infinity", "nan", "nan(1)",
        "1.", ".5", "1e", "--1", "", "-0", "0.30000000000000004",
        "1.7976931348623157e+308"}) {
    SCOPED_TRACE(std::string("text '") + text + "'");
    char* end = nullptr;
    const double want = std::strtod(text, &end);
    const bool accepted = *text != '\0' && *end == '\0';
    if (!accepted) {
      EXPECT_THROW(util::parse_exact_double(text, "v"), util::StateCodecError);
      continue;
    }
    double got = 0.0;
    ASSERT_NO_THROW(got = util::parse_exact_double(text, "v"));
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0);
  }
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

// ------------------------------------------------------------------ csv
TEST(Csv, WriteAndParseRoundTrip) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.row(std::vector<double>{1.5, 2.0});
  w.row(std::vector<double>{-0.25, 1e-3});

  std::istringstream in(out.str());
  auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  auto vals = csv_row_to_doubles(rows[1]);
  EXPECT_DOUBLE_EQ(vals[0], 1.5);
  EXPECT_DOUBLE_EQ(vals[1], 2.0);
  vals = csv_row_to_doubles(rows[2]);
  EXPECT_DOUBLE_EQ(vals[0], -0.25);
  EXPECT_DOUBLE_EQ(vals[1], 0.001);
}

TEST(Csv, NonNumericCellThrows) {
  EXPECT_THROW(csv_row_to_doubles({"1.0", "abc"}), PreconditionError);
  EXPECT_THROW(csv_row_to_doubles({"1.0x"}), PreconditionError);
}

TEST(Csv, SkipsEmptyLines) {
  std::istringstream in("a,b\n\n1,2\n");
  auto rows = parse_csv(in);
  EXPECT_EQ(rows.size(), 2u);
}

// ----------------------------------------------------------- ascii plot
TEST(AsciiPlot, LinesContainGlyphAndLegend) {
  std::vector<double> s{0.0, 1.0, 2.0, 3.0};
  std::string plot = plot_lines({s}, {"ramp"});
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("ramp"), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesHandled) {
  std::string plot = plot_lines({{}}, {"empty"});
  EXPECT_NE(plot.find("no data"), std::string::npos);
}

TEST(AsciiPlot, ScatterPlacesGroups) {
  ScatterGroup a{"a", '.', {{0.0, 0.0}, {1.0, 1.0}}};
  ScatterGroup b{"b", '#', {{0.5, 0.5}}};
  std::string plot = plot_scatter({a, b});
  EXPECT_NE(plot.find('.'), std::string::npos);
  EXPECT_NE(plot.find('#'), std::string::npos);
}

TEST(AsciiPlot, TooSmallAreaRejected) {
  PlotOptions opts;
  opts.width = 2;
  EXPECT_THROW(plot_lines({{1.0}}, {"x"}, opts), PreconditionError);
}

TEST(AsciiPlot, NonFiniteValuesSkipped) {
  std::vector<double> s{0.0, std::nan(""), 2.0};
  EXPECT_NO_THROW(plot_lines({s}, {"with-nan"}));
}

}  // namespace
}  // namespace stayaway
