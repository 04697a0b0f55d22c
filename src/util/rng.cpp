#include "util/rng.hpp"

#include "util/check.hpp"

namespace stayaway {

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(*this);
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

double Rng::exponential(double rate) {
  SA_REQUIRE(rate > 0.0, "exponential rate must be positive");
  return std::exponential_distribution<double>(rate)(*this);
}

bool Rng::chance(double p) {
  SA_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0,1]");
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork() {
  // Mix the next engine output through splitmix64 so the child stream is
  // decorrelated from the parent even for adjacent forks.
  std::uint64_t z = (*this)() + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

Rng Rng::resumed(std::uint64_t seed, std::uint64_t draws) {
  Rng rng(seed);
  rng.engine_.discard(draws);
  rng.draws_ = draws;
  return rng;
}

}  // namespace stayaway
