// Zipf-distributed key sampling.
//
// The paper's Webservice serves a Memcached-backed dataset; real key-value
// workloads are heavily skewed, so the simulated service samples keys from
// a Zipf distribution over its keyspace. Sampling inverts a precomputed
// CDF through a guide table (Chen-Asau indexed search): bucket j of m
// starts at the rank of u = j/m, so a draw binary-searches only its own
// bucket. The result is always upper_bound's over the whole CDF: a bucket
// answer is accepted only if it meets upper_bound's postcondition, and a
// full search settles anything else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace stayaway::stats {

class ZipfSampler {
 public:
  /// Ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^exponent.
  /// Requires n > 0 and exponent >= 0 (0 gives a uniform distribution).
  ZipfSampler(std::size_t n, double exponent);

  /// One draw: rank(rng.uniform()).
  std::size_t sample(Rng& rng) const;
  /// The rank whose CDF interval holds u: the first k with cdf[k] > u
  /// (the last rank if none).
  std::size_t rank(double u) const;
  std::size_t size() const { return cdf_.size(); }

  /// Probability mass of a given rank.
  double mass(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
  /// guide_[j] = rank(j / m) for m = guide_.size() buckets, m a power
  /// of two.
  std::vector<std::uint32_t> guide_;
};

}  // namespace stayaway::stats
