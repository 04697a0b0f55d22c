// Zipf-distributed key sampling.
//
// The paper's Webservice serves a Memcached-backed dataset; real key-value
// workloads are heavily skewed, so the simulated service samples keys from
// a Zipf distribution over its keyspace. Sampling inverts a precomputed
// CDF through a guide table (Chen-Asau indexed search): bucket j of m
// starts at the rank of u = j/m, and a sentinel entry ends the last
// bucket at the last rank, so bucket j holds the ranks guide[j] through
// guide[j + 1]. A draw's estimate interpolates its offset into its
// bucket over those ranks; one branch-free step down and one up settle
// it. The result is always upper_bound's over the whole CDF: a settled
// rank is accepted only if it meets upper_bound's postcondition, and a
// full search answers anything else (an estimate more than one rank
// off, which only costs time). The batched sample() requests each
// draw's guide entry, then the CDF lines around its estimate, before it
// settles any, so one tick's cache misses overlap.
//
// One table per (n, exponent): samplers built while another sampler of
// the same keyspace is alive share its CDF and guide table instead of
// building their own (a mutex-guarded intern map of weak references; the
// last sampler to go frees the table). Sharing is safe because a table is
// immutable once built and is a pure function of (n, exponent): every
// draw reads it without locks, and which host happened to build it
// changes no byte of it. All mutable sampling state lives in the caller's
// Rng.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "util/rng.hpp"

namespace stayaway::stats {

class ZipfSampler {
 public:
  /// Ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^exponent.
  /// Requires n > 0 and exponent >= 0 (0 gives a uniform distribution).
  ZipfSampler(std::size_t n, double exponent);

  /// One draw: rank(rng.uniform()).
  std::size_t sample(Rng& rng) const;
  /// out.size() draws, the same ranks from the same uniforms as that
  /// many sample(rng) calls in turn.
  void sample(Rng& rng, std::span<std::uint32_t> out) const;
  /// The rank whose CDF interval holds u: the first k with cdf[k] > u
  /// (the last rank if none).
  std::size_t rank(double u) const;
  std::size_t size() const;

  /// Probability mass of a given rank.
  double mass(std::size_t rank) const;

 private:
  struct Table;
  /// The live table for (n, exponent), built if no sampler holds one.
  static std::shared_ptr<const Table> intern(std::size_t n, double exponent);

  std::shared_ptr<const Table> table_;
};

}  // namespace stayaway::stats
