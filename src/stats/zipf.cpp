#include "stats/zipf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace stayaway::stats {

namespace {
/// Guide-table size cap, a power of two: 256 KiB of ranks.
constexpr std::size_t kGuideBuckets = 65536;
}  // namespace

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  SA_REQUIRE(n > 0, "zipf needs a non-empty keyspace");
  SA_REQUIRE(n <= UINT32_MAX, "zipf keyspace must fit 32-bit ranks");
  SA_REQUIRE(std::isfinite(exponent) && exponent >= 0.0,
             "zipf exponent must be finite and non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Very large exponents make pow overflow to inf; its reciprocal is a
    // clean 0 (the tail carries no mass), never a NaN. The k = 0 term is
    // exactly 1, so acc >= 1 and the normalization below cannot divide
    // by zero.
    double weight = 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    acc += weight;
    cdf_[k] = acc;
  }
  SA_CHECK(std::isfinite(acc) && acc >= 1.0,
           "zipf normalizer must be finite and >= 1");
  // Normalize and force exact monotonicity: around s ~= 1 the division
  // can round adjacent entries out of order by one ulp, which would
  // break upper_bound's precondition in rank() and make mass() return
  // a tiny negative probability. The same sweep fills the guide table:
  // bucket j starts at the first rank whose CDF exceeds j/m. With m a
  // power of two, j/m is exact.
  const std::size_t m = std::min(std::bit_ceil(n), kGuideBuckets);
  const double bucket_width = 1.0 / static_cast<double>(m);
  guide_.resize(m);
  std::size_t j = 0;
  double prev = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    double v = std::min(cdf_[k] / acc, 1.0);
    if (v < prev) v = prev;
    if (k + 1 == n) v = 1.0;
    cdf_[k] = v;
    prev = v;
    for (; j < m && static_cast<double>(j) * bucket_width < v; ++j) {
      guide_[j] = static_cast<std::uint32_t>(k);
    }
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const { return rank(rng.uniform()); }

std::size_t ZipfSampler::rank(double u) const {
  const auto first = cdf_.begin();
  if (u >= 0.0 && u < 1.0) {  // false for NaN
    const std::size_t m = guide_.size();
    const auto j =
        std::min(static_cast<std::size_t>(u * static_cast<double>(m)), m - 1);
    const std::size_t lo = guide_[j];
    const std::size_t hi = (j + 1 < m) ? guide_[j + 1] : cdf_.size() - 1;
    const auto k = static_cast<std::size_t>(
        std::upper_bound(first + lo, first + hi, u) - first);
    if (cdf_[k] > u && (k == 0 || cdf_[k - 1] <= u)) return k;
  }
  // u outside [0, 1), or a bucket that does not hold upper_bound's answer
  // (cannot happen while m is a power of two: j/m and u*m are exact):
  // search the whole CDF, clamped to the last rank.
  auto it = std::upper_bound(first, cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<std::size_t>(it - first);
}

double ZipfSampler::mass(std::size_t rank) const {
  SA_REQUIRE(rank < cdf_.size(), "rank out of range");
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace stayaway::stats
