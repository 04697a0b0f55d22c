// Small dense row-major matrix. Sized for this library's needs: MDS
// observation matrices of a few hundred rows and metric spaces of a few
// dozen dimensions. Not a general-purpose BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace stayaway::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols);

  /// From nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  Matrix transposed() const;
  Matrix multiply(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean distance between two equal-length vectors.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance between two equal-length vectors.
double squared_distance(std::span<const double> a, std::span<const double> b);

}  // namespace stayaway::linalg
