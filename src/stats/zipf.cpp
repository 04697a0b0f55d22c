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
    const std::size_t m = guide.size();
    return std::min(static_cast<std::size_t>(u * static_cast<double>(m)),
                    m - 1);
  }

  /// upper_bound's answer for u in [0, 1) from u's bucket, or kMiss if
  /// the bucket does not hold it.
  std::size_t search(double u) const {
    // Branch-free and in the same number of steps for every draw: the
    // answer lies in [k, k + 2w - 1] before the step of width w. Entries
    // past the bucket's end exceed u, and indices past the CDF's end
    // read its last entry, 1.0, which does.
    std::size_t k = guide[bucket(u)];
    const std::size_t last = cdf.size() - 1;
    for (std::size_t w = search_width; w > 0; w /= 2) {
      k = (cdf[std::min(k + w - 1, last)] <= u) ? k + w : k;
    }
    return (cdf[k] > u && (k == 0 || cdf[k - 1] <= u)) ? k : kMiss;
  }
  static constexpr std::size_t kMiss = SIZE_MAX;

  std::vector<double> cdf;
  /// guide[j] = rank(j / m) for m = guide.size() buckets, m a power of
  /// two.
  std::vector<std::uint32_t> guide;
  /// Half the smallest power of two above every bucket's rank span
  /// (guide[j + 1] - guide[j], the last bucket ending at n - 1): the
  /// first step of rank()'s in-bucket search. 0 when no bucket spans a
  /// rank.
  std::size_t search_width = 0;
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
  guide.resize(m);
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
  std::size_t span = 0;
  for (std::size_t b = 0; b < m; ++b) {
    const std::size_t end = (b + 1 < m) ? guide[b + 1] : n - 1;
    span = std::max(span, end - guide[b]);
  }
  search_width = std::bit_floor(span);
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
  // then every draw's guide entry and the first kSpan CDF entries of its
  // search window (one request per 64-byte line) are requested before
  // the first search, so a chunk's cache misses overlap instead of
  // queueing. The prefetches are hints: the ranks are rank()'s.
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kSpan = 32;
  constexpr std::size_t kLine = 64 / sizeof(double);
  const Table& t = *table_;
  const std::size_t last = t.cdf.size() - 1;
  const std::size_t span = std::min(2 * t.search_width, kSpan);
  double u[kBatch];
  for (std::size_t done = 0; done < out.size(); done += kBatch) {
    const std::size_t n = std::min(kBatch, out.size() - done);
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = rng.uniform();
      __builtin_prefetch(&t.guide[t.bucket(u[i])]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = t.guide[t.bucket(u[i])];
      const std::size_t end = std::min(lo + span, last);
      for (std::size_t x = lo; x <= end; x += kLine) {
        __builtin_prefetch(&t.cdf[x]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t k = t.search(u[i]);
      if (k == Table::kMiss) k = rank(u[i]);
      out[done + i] = static_cast<std::uint32_t>(k);
    }
  }
}

std::size_t ZipfSampler::rank(double u) const {
  if (u >= 0.0 && u < 1.0) {  // false for NaN
    const std::size_t k = table_->search(u);
    if (k != Table::kMiss) return k;
  }
  const std::vector<double>& cdf = table_->cdf;
  const auto first = cdf.begin();
  // u outside [0, 1), or a bucket that does not hold upper_bound's answer
  // (cannot happen while m is a power of two: j/m and u*m are exact):
  // search the whole CDF, clamped to the last rank.
  auto it = std::upper_bound(first, cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<std::size_t>(it - first);
}

double ZipfSampler::mass(std::size_t rank) const {
  const std::vector<double>& cdf = table_->cdf;
  SA_REQUIRE(rank < cdf.size(), "rank out of range");
  if (rank == 0) return cdf[0];
  return cdf[rank] - cdf[rank - 1];
}

}  // namespace stayaway::stats
