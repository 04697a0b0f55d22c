#include "util/rng.hpp"

#include <random>

#include "util/check.hpp"

namespace stayaway {

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Rng::refill() {
  // The MT19937-64 twist in the three runs std::mt19937_64 uses. The
  // matrix term is a mask of the low bit, not a branch on it: that bit
  // is random, so a branch mispredicts on every other word.
  constexpr std::size_t kShift = 156;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  std::uint64_t* x = state_.data();
  auto twist = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kWords - kShift; ++k) x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  for (; k < kWords - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift - kWords]);
  }
  x[kWords - 1] = twist(x[kWords - 1], x[0], x[kShift - 1]);
  next_ = 0;
}

double Rng::uniform(double lo, double hi) {
  SA_REQUIRE(lo <= hi, "uniform bounds must be ordered");
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(*this);
}

std::size_t Rng::index(std::size_t n) {
  SA_REQUIRE(n > 0, "index requires a non-empty range");
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(*this);
}

double Rng::normal(double mean, double sigma) {
  SA_REQUIRE(sigma >= 0.0, "normal sigma must be non-negative");
  if (sigma == 0.0) return mean;
  return std::normal_distribution<double>(mean, sigma)(*this);
}

bool Rng::chance(double p) {
  SA_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0,1]");
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::resumed(std::uint64_t seed, std::uint64_t draws) {
  Rng rng(seed);
  std::uint64_t left = draws;
  while (left > kWords - rng.next_) {
    left -= kWords - rng.next_;
    rng.refill();
  }
  rng.next_ += static_cast<std::size_t>(left);
  rng.draws_ = draws;
  return rng;
}

}  // namespace stayaway
