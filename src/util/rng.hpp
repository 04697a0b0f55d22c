// Deterministic random number generation.
//
// Every stochastic component in the library draws from an explicitly
// seeded Rng so that experiments are reproducible run-to-run. The class
// wraps std::mt19937_64, is itself a uniform random bit generator (so
// std:: distributions draw through it) and exposes the handful of
// distributions the library needs.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace stayaway {

class Rng {
 public:
  using result_type = std::mt19937_64::result_type;

  /// Seeded construction; the same seed always yields the same stream.
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  /// The engine's next raw output; every draw of every helper goes
  /// through here and is counted.
  result_type operator()() {
    ++draws_;
    return engine_();
  }

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

  /// The construction seed and the raw draws made since: together the
  /// whole state of an Rng, which util::StateIO::rng snapshots as
  /// `<seed> <draws>` (DESIGN.md §17).
  std::uint64_t seed() const { return seed_; }
  std::uint64_t draws() const { return draws_; }
  /// The Rng `seed` builds, advanced past its first `draws` outputs.
  /// Costs O(draws).
  static Rng resumed(std::uint64_t seed, std::uint64_t draws);

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t draws_ = 0;
};

}  // namespace stayaway
