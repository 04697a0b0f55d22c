#include "mds/distance.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::mds {

linalg::Matrix distance_matrix(const std::vector<std::vector<double>>& vectors) {
  SA_REQUIRE(!vectors.empty(), "distance matrix of an empty set");
  const std::size_t n = vectors.size();
  linalg::Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double dist = linalg::euclidean_distance(vectors[i], vectors[j]);
      d.at(i, j) = dist;
      d.at(j, i) = dist;
    }
  }
  return d;
}

linalg::Matrix extended_distance_matrix(
    const linalg::Matrix& d, const std::vector<std::vector<double>>& vectors) {
  const std::size_t m = d.rows();
  const std::size_t n = vectors.size();
  SA_REQUIRE(d.rows() == d.cols(), "dissimilarity matrix must be square");
  SA_REQUIRE(m <= n, "matrix covers more rows than there are vectors");
  if (m == 0) return distance_matrix(vectors);
  if (m == n) return d;

  linalg::Matrix out(n, n);
  for (std::size_t r = 0; r < m; ++r) {
    auto src = d.row(r);
    auto dst = out.row(r);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  // Only the new rows/columns are computed: O((n - m) * n) distances
  // instead of the O(n^2) full rebuild, entry-wise identical to
  // distance_matrix(vectors).
  for (std::size_t i = m; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      double dist = linalg::euclidean_distance(vectors[i], vectors[j]);
      out.at(i, j) = dist;
      out.at(j, i) = dist;
    }
  }
  return out;
}

std::vector<double> distances_to(const std::vector<std::vector<double>>& vectors,
                                 const std::vector<double>& v) {
  std::vector<double> out;
  out.reserve(vectors.size());
  for (const auto& row : vectors) {
    out.push_back(linalg::euclidean_distance(row, v));
  }
  return out;
}

}  // namespace stayaway::mds
