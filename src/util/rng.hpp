// Deterministic random number generation.
//
// Every stochastic component in the library draws from an explicitly
// seeded Rng so that experiments are reproducible run-to-run. The class
// wraps std::mt19937_64 and exposes the handful of distributions the
// library needs.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace stayaway {

class Rng {
 public:
  /// Seeded construction; the same seed always yields the same stream.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential with the given rate (rate > 0).
  double exponential(double rate);

  /// Bernoulli trial with probability p in [0, 1].
  bool chance(double p);

  /// Splits off an independently seeded child generator. Children are
  /// decorrelated from the parent and from each other.
  Rng fork();

  /// Access to the raw engine for use with std:: distributions. The
  /// engine is the only state an Rng has: util::StateIO::rng snapshots
  /// it (DESIGN.md §17).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace stayaway
