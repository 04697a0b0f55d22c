#include "stats/var1.hpp"

#include <cmath>

#include "linalg/solve.hpp"
#include "util/check.hpp"

namespace stayaway::stats {

namespace {

// Forecast components are clamped to this magnitude so an unstable
// fitted transition (spectral radius > 1) cannot iterate predict into
// overflow: forecasts stay huge-but-finite and comparable.
constexpr double kForecastClamp = 1e150;

bool all_finite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

Var1Model::Var1Model(linalg::Matrix transition, std::vector<double> intercept)
    : transition_(std::move(transition)), intercept_(std::move(intercept)) {}

Var1Model Var1Model::fit(const std::vector<std::vector<double>>& series,
                         double ridge) {
  SA_REQUIRE(series.size() >= 3, "VAR(1) needs at least three observations");
  const std::size_t dim = series.front().size();
  SA_REQUIRE(dim > 0, "VAR(1) needs non-empty state vectors");
  SA_REQUIRE(series.size() >= dim + 2,
             "VAR(1) needs more samples than dimensions");
  for (const auto& s : series) {
    SA_REQUIRE(s.size() == dim, "all state vectors must share a dimension");
    SA_REQUIRE(all_finite(s), "VAR(1) observations must be finite");
  }
  SA_REQUIRE(ridge >= 0.0, "ridge must be non-negative");

  // Design matrix: each row is [x_t, 1]; target column d is x_{t+1}[d].
  const std::size_t n = series.size() - 1;
  linalg::Matrix design(n, dim + 1);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t c = 0; c < dim; ++c) design.at(t, c) = series[t][c];
    design.at(t, dim) = 1.0;
  }

  linalg::Matrix transition(dim, dim);
  std::vector<double> intercept(dim, 0.0);
  std::vector<double> target(n, 0.0);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t t = 0; t < n; ++t) target[t] = series[t + 1][d];
    // A near-singular design (constant series, collinear dimensions)
    // can defeat the caller's ridge: the normal-equation solve either
    // throws on a sub-tolerance pivot or returns enormous/non-finite
    // coefficients. Escalate the ridge until the solve is well posed —
    // the fit biases toward zero but every coefficient stays finite,
    // which is the contract forecast consumers rely on.
    std::vector<double> coeff;
    double lambda = ridge;
    for (int attempt = 0;; ++attempt) {
      bool solved = false;
      try {
        coeff = linalg::solve_least_squares(design, target, lambda);
        solved = all_finite(coeff);
      } catch (const PreconditionError&) {
        solved = false;
      }
      if (solved) break;
      SA_CHECK(attempt < 20, "VAR(1) fit failed to regularize");
      lambda = lambda > 0.0 ? lambda * 100.0 : 1e-8;
    }
    for (std::size_t c = 0; c < dim; ++c) transition.at(d, c) = coeff[c];
    intercept[d] = coeff[dim];
  }
  return Var1Model(std::move(transition), std::move(intercept));
}

std::vector<double> Var1Model::predict(const std::vector<double>& state) const {
  SA_REQUIRE(state.size() == dimension(), "state dimension mismatch");
  std::vector<double> out(dimension(), 0.0);
  for (std::size_t r = 0; r < dimension(); ++r) {
    double acc = intercept_[r];
    for (std::size_t c = 0; c < dimension(); ++c) {
      acc += transition_.at(r, c) * state[c];
    }
    // Clamp so iterated forecasts of an unstable model saturate instead
    // of overflowing to inf (and then NaN via inf - inf).
    if (acc > kForecastClamp) acc = kForecastClamp;
    if (acc < -kForecastClamp) acc = -kForecastClamp;
    out[r] = acc;
  }
  return out;
}

}  // namespace stayaway::stats
