// Unit tests for src/linalg: matrix ops, linear solves, Jacobi eigen.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "matrix_compare.hpp"
#include "util/check.hpp"

namespace stayaway::linalg {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerRejected) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), PreconditionError);
}

TEST(Matrix, OutOfRangeAccessThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), PreconditionError);
  EXPECT_THROW(m.at(0, 2), PreconditionError);
}

TEST(Matrix, IdentityMultiplication) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix result = a.multiply(Matrix::identity(2));
  EXPECT_DOUBLE_EQ(testutil::max_abs_difference(result, a), 0.0);
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, ShapeMismatchRejected) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), PreconditionError);
  EXPECT_NO_THROW(a.multiply(b.transposed()));
}

TEST(Matrix, TransposeInvolution) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(testutil::max_abs_difference(t.transposed(), a), 0.0);
}

TEST(Vectors, EuclideanDistance) {
  std::vector<double> a{0.0, 0.0};
  std::vector<double> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(Vectors, DistanceDimensionMismatchRejected) {
  std::vector<double> a{0.0};
  std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(euclidean_distance(a, b), PreconditionError);
}

// ---------------------------------------------------------------- solve
TEST(Solve, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  std::vector<double> x = solve(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Solve, PivotingHandlesZeroDiagonal) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<double> x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Solve, SingularMatrixRejected) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(solve(a, {1.0, 2.0}), PreconditionError);
}

TEST(Solve, DimensionMismatchRejected) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_THROW(solve(a, {1.0}), PreconditionError);
}

TEST(Solve, LeastSquaresRecoversExactFit) {
  // y = 2x + 1 sampled exactly: design [x, 1].
  Matrix design{{0.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}};
  std::vector<double> coeff =
      solve_least_squares(design, {1.0, 3.0, 5.0, 7.0});
  EXPECT_NEAR(coeff[0], 2.0, 1e-9);
  EXPECT_NEAR(coeff[1], 1.0, 1e-9);
}

TEST(Solve, LeastSquaresRidgeShrinks) {
  Matrix design{{1.0}, {1.0}};
  std::vector<double> plain = solve_least_squares(design, {2.0, 2.0}, 0.0);
  std::vector<double> ridged = solve_least_squares(design, {2.0, 2.0}, 10.0);
  EXPECT_NEAR(plain[0], 2.0, 1e-9);
  EXPECT_LT(ridged[0], plain[0]);
}

// ---------------------------------------------------------------- eigen
TEST(Eigen, DiagonalMatrix) {
  Matrix a{{3.0, 0.0}, {0.0, 1.0}};
  auto eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
}

TEST(Eigen, KnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  auto eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  double vx = eig.vectors.at(0, 0);
  double vy = eig.vectors.at(0, 1);
  EXPECT_NEAR(std::abs(vx), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(vx, vy, 1e-8);
}

TEST(Eigen, ReconstructsMatrix) {
  Matrix a{{4.0, 1.0, 0.5}, {1.0, 3.0, 0.2}, {0.5, 0.2, 1.0}};
  auto eig = eigen_symmetric(a);
  // A = sum_i lambda_i v_i v_i^T
  Matrix recon(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        recon.at(r, c) +=
            eig.values[i] * eig.vectors.at(i, r) * eig.vectors.at(i, c);
      }
    }
  }
  EXPECT_LT(testutil::max_abs_difference(recon, a), 1e-9);
}

TEST(Eigen, ValuesSortedDescending) {
  Matrix a{{1.0, 0.0, 0.0}, {0.0, 5.0, 0.0}, {0.0, 0.0, 3.0}};
  auto eig = eigen_symmetric(a);
  EXPECT_GE(eig.values[0], eig.values[1]);
  EXPECT_GE(eig.values[1], eig.values[2]);
}

TEST(Eigen, EigenvectorsOrthonormal) {
  Matrix a{{2.0, 0.5, 0.1}, {0.5, 1.0, 0.3}, {0.1, 0.3, 4.0}};
  auto eig = eigen_symmetric(a);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      double dot = 0.0;
      for (std::size_t k = 0; k < 3; ++k) {
        dot += eig.vectors.at(i, k) * eig.vectors.at(j, k);
      }
      EXPECT_NEAR(dot, (i == j) ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Eigen, NonSquareRejected) {
  Matrix a(2, 3);
  EXPECT_THROW(eigen_symmetric(a), PreconditionError);
}

TEST(Eigen, NegativeEigenvaluesHandled) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};  // eigenvalues +1, -1
  auto eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], -1.0, 1e-10);
}

}  // namespace
}  // namespace stayaway::linalg
