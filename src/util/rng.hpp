// Deterministic random number generation.
//
// Every stochastic component in the library draws from an explicitly
// seeded Rng so that experiments are reproducible run-to-run. The class
// implements the MT19937-64 recurrence itself: its raw outputs equal
// std::mt19937_64(seed)'s, word for word. It is a uniform random bit
// generator (so std:: distributions draw through it) and exposes the
// handful of distributions the library needs. The state refill computes
// the twist without a branch on the random low bit, and the hot draws
// (operator() and uniform()) are inline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace stayaway {

class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeded construction; the same seed always yields the same stream.
  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  /// The engine's next raw output; every draw of every helper goes
  /// through here and is counted.
  result_type operator()() {
    if (next_ == kWords) [[unlikely]] refill();
    ++draws_;
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Uniform double in [0, 1): one raw output scaled by 2^-64, clamped
  /// below 1 — exactly what std::uniform_real_distribution<double>(0, 1)
  /// (via std::generate_canonical) returns over this generator.
  double uniform() {
    // double(x), without the branch x86-64 takes on an unsigned top bit
    // (a random bit here): each 32-bit half converts exactly, so their
    // sum is rounded once, like the direct conversion.
    const result_type x = (*this)();
    const double v = static_cast<double>(x >> 32) * 0x1p32 +
                     static_cast<double>(x & 0xffffffffULL);
    const double u = v * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Bernoulli trial with probability p in [0, 1].
  bool chance(double p);

  /// The construction seed and the raw draws made since: together the
  /// whole state of an Rng, which util::StateIO::rng snapshots as
  /// `<seed> <draws>` (DESIGN.md §17).
  std::uint64_t seed() const { return seed_; }
  std::uint64_t draws() const { return draws_; }
  /// The Rng `seed` builds, advanced past its first `draws` outputs.
  /// Costs O(draws): whole blocks of 312 are skipped by refilling the
  /// state without tempering any output.
  static Rng resumed(std::uint64_t seed, std::uint64_t draws);

 private:
  static constexpr std::size_t kWords = 312;

  /// Regenerates all kWords state words (the MT19937-64 twist) and
  /// rewinds next_ to the first.
  void refill();

  std::array<std::uint64_t, kWords> state_{};
  std::size_t next_ = kWords;
  std::uint64_t seed_;
  std::uint64_t draws_ = 0;
};

}  // namespace stayaway
