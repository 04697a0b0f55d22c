// Test helper: entry-wise comparison of two matrices.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/matrix.hpp"

namespace stayaway::testutil {

/// Largest absolute entry difference of two matrices; infinite when
/// their shapes differ.
inline double max_abs_difference(const linalg::Matrix& a,
                                 const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      m = std::max(m, std::abs(a.at(r, c) - b.at(r, c)));
    }
  }
  return m;
}

}  // namespace stayaway::testutil
