#include "linalg/matrix.hpp"

#include <cmath>

#include "util/check.hpp"

namespace stayaway::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    SA_REQUIRE(r.size() == cols_, "all rows must have equal length");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  SA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  SA_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  SA_REQUIRE(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  SA_REQUIRE(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  SA_REQUIRE(cols_ == other.rows_, "matrix shapes do not compose");
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      double v = at(r, k);
      if (v == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out.at(r, c) += v * other.at(k, c);
      }
    }
  }
  return out;
}

double euclidean_distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  SA_REQUIRE(a.size() == b.size(), "vectors must have equal length");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace stayaway::linalg
