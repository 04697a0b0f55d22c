#include "stats/zipf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/sync.hpp"

namespace stayaway::stats {

struct ZipfSampler::Table {
  Table(std::size_t n, double exponent);

  /// The guide bucket of u in [0, 1).
  std::size_t bucket(double u) const {
    const std::size_t m = guide.size() - 1;
    return std::min(static_cast<std::size_t>(u * static_cast<double>(m)),
                    m - 1);
  }

  /// An estimate of upper_bound's answer for u in [0, 1), in
  /// [guide[b], guide[b + 1]] for u's bucket b: the rank at u's offset
  /// into the bucket, as if the bucket's mass were spread evenly over
  /// its ranks. u * m - b is exact because m is a power of two.
  std::size_t estimate(double u) const {
    const std::size_t b = bucket(u);
    const std::size_t lo = guide[b];
    const std::size_t hi = guide[b + 1];
    const double frac =
        u * static_cast<double>(guide.size() - 1) - static_cast<double>(b);
    const auto step =
        static_cast<std::size_t>(frac * static_cast<double>(hi - lo + 1));
    return std::min(lo + step, hi);
  }

  /// upper_bound's answer for u in [0, 1) from estimate k, or kMiss if
  /// it lies more than one rank from k. One step down, then one up,
  /// without a data-dependent branch; the answer is accepted only if it
  /// meets upper_bound's postcondition.
  std::size_t settle(double u, std::size_t k) const {
    k -= static_cast<std::size_t>((k > 0) & (cdf[k - (k > 0)] > u));
    k += static_cast<std::size_t>(cdf[k] <= u);
    const bool above = cdf[k] > u;
    const bool below = (k == 0) | (cdf[k - (k > 0)] <= u);
    return (above & below) ? k : kMiss;
  }
  static constexpr std::size_t kMiss = SIZE_MAX;

  std::vector<double> cdf;
  /// guide[j] = rank(j / m) for j < m buckets, m a power of two, and
  /// the sentinel guide[m] = n - 1: bucket j holds the ranks guide[j]
  /// through guide[j + 1].
  std::vector<std::uint32_t> guide;
};

namespace {

/// Guide-table size cap, a power of two: 256 KiB of ranks.
constexpr std::size_t kGuideBuckets = 65536;

}  // namespace

ZipfSampler::Table::Table(std::size_t n, double exponent) : cdf(n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Very large exponents make pow overflow to inf; its reciprocal is a
    // clean 0 (the tail carries no mass), never a NaN. The k = 0 term is
    // exactly 1, so acc >= 1 and the normalization below cannot divide
    // by zero.
    double weight = 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    acc += weight;
    cdf[k] = acc;
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
  guide.resize(m + 1);
  std::size_t j = 0;
  double prev = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    double v = std::min(cdf[k] / acc, 1.0);
    if (v < prev) v = prev;
    if (k + 1 == n) v = 1.0;
    cdf[k] = v;
    prev = v;
    for (; j < m && static_cast<double>(j) * bucket_width < v; ++j) {
      guide[j] = static_cast<std::uint32_t>(k);
    }
  }
  guide[m] = static_cast<std::uint32_t>(n - 1);
  SA_INVARIANT(std::is_sorted(guide.begin(), guide.end()) && guide[m] == n - 1,
               "zipf guide must be non-decreasing and end at the last rank");
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  SA_REQUIRE(n > 0, "zipf needs a non-empty keyspace");
  SA_REQUIRE(n <= UINT32_MAX, "zipf keyspace must fit 32-bit ranks");
  SA_REQUIRE(std::isfinite(exponent) && exponent >= 0.0,
             "zipf exponent must be finite and non-negative");
  table_ = intern(n, exponent);
}

std::shared_ptr<const ZipfSampler::Table> ZipfSampler::intern(
    std::size_t n, double exponent) {
  // The live tables, keyed by (n, exponent). Entries whose last sampler
  // is gone are swept whenever a new table is built.
  struct Tables {
    util::Mutex mu;
    std::map<std::pair<std::size_t, double>, std::weak_ptr<const Table>> live
        SA_GUARDED_BY(mu);
  };
  static Tables tables;
  util::MutexLock lock(tables.mu);
  const std::pair key{n, exponent};
  if (auto it = tables.live.find(key); it != tables.live.end()) {
    if (auto table = it->second.lock()) return table;
  }
  std::erase_if(tables.live,
                [](const auto& entry) { return entry.second.expired(); });
  auto table = std::make_shared<const Table>(n, exponent);
  tables.live[key] = table;
  return table;
}

std::size_t ZipfSampler::size() const { return table_->cdf.size(); }

std::size_t ZipfSampler::sample(Rng& rng) const { return rank(rng.uniform()); }

void ZipfSampler::sample(Rng& rng, std::span<std::uint32_t> out) const {
  // Chunks of kBatch draws. The uniforms come first, in stream order;
  // then every draw's guide entry, and next the CDF lines around its
  // estimate (the two ends of the window settle() reads), are requested
  // before the first draw is settled, so a chunk's cache misses overlap
  // instead of queueing. The prefetches are hints: the ranks are
  // rank()'s.
  constexpr std::size_t kBatch = 32;
  const Table& t = *table_;
  const std::size_t last = t.cdf.size() - 1;
  double u[kBatch];
  std::size_t est[kBatch];
  for (std::size_t done = 0; done < out.size(); done += kBatch) {
    const std::size_t n = std::min(kBatch, out.size() - done);
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = rng.uniform();
      __builtin_prefetch(&t.guide[t.bucket(u[i])]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      est[i] = t.estimate(u[i]);
      __builtin_prefetch(&t.cdf[est[i] - (est[i] > 0)]);
      __builtin_prefetch(&t.cdf[std::min(est[i] + 1, last)]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t k = t.settle(u[i], est[i]);
      if (k == Table::kMiss) k = rank(u[i]);
      out[done + i] = static_cast<std::uint32_t>(k);
    }
  }
}

std::size_t ZipfSampler::rank(double u) const {
  const Table& t = *table_;
  if (u >= 0.0 && u < 1.0) {  // false for NaN
    const std::size_t k = t.settle(u, t.estimate(u));
    if (k != Table::kMiss) return k;
  }
  // u outside [0, 1), or an estimate more than one rank off: search the
  // whole CDF, clamped to the last rank.
  const auto first = t.cdf.begin();
  auto it = std::upper_bound(first, t.cdf.end(), u);
  if (it == t.cdf.end()) --it;
  return static_cast<std::size_t>(it - first);
}

double ZipfSampler::mass(std::size_t rank) const {
  const std::vector<double>& cdf = table_->cdf;
  SA_REQUIRE(rank < cdf.size(), "rank out of range");
  if (rank == 0) return cdf[0];
  return cdf[rank] - cdf[rank - 1];
}

}  // namespace stayaway::stats
