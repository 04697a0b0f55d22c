// First-order vector autoregressive model, x_{t+1} = A x_t + b.
//
// §3.1 of the paper argues against forecasting directly in the
// high-dimensional metric space with VAR because reliable parameter
// estimation needs sample counts that grow with dimensionality. We
// implement VAR(1) anyway as the ablation comparator for that argument
// (bench_abl_var): histogram sampling in 2-D versus VAR in m dimensions.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace stayaway::stats {

class Var1Model {
 public:
  /// Fits on a time-ordered sequence of equal-length state vectors by
  /// per-dimension ridge least squares. Requires at least dim+2 finite
  /// samples. A near-singular design escalates the ridge until the
  /// solve conditions, so fitted coefficients are always finite; predict
  /// saturates at a huge-but-finite clamp, so forecasts of an unstable
  /// model never reach inf/NaN (pinned in tests/test_stats.cpp).
  static Var1Model fit(const std::vector<std::vector<double>>& series,
                       double ridge = 1e-6);

  std::size_t dimension() const { return intercept_.size(); }

  /// One-step-ahead forecast from the given state.
  std::vector<double> predict(const std::vector<double>& state) const;

  const linalg::Matrix& transition() const { return transition_; }
  const std::vector<double>& intercept() const { return intercept_; }

 private:
  Var1Model(linalg::Matrix transition, std::vector<double> intercept);

  linalg::Matrix transition_;
  std::vector<double> intercept_;
};

}  // namespace stayaway::stats
