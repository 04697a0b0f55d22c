// Pairwise distance matrices over high-dimensional measurement vectors.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace stayaway::mds {

/// Symmetric n x n matrix of Euclidean distances between the rows of
/// `vectors`. All rows must share a dimension.
linalg::Matrix distance_matrix(const std::vector<std::vector<double>>& vectors);

/// Grows an existing distance matrix over the first d.rows() rows of
/// `vectors` to cover all of them, computing only the new rows/columns.
/// Entry-wise identical to distance_matrix(vectors) but O((n - m) * n)
/// instead of O(n^2) when m rows are already known. Requires the square
/// matrix `d` to be the distance matrix of vectors[0 .. d.rows()).
linalg::Matrix extended_distance_matrix(
    const linalg::Matrix& d, const std::vector<std::vector<double>>& vectors);

}  // namespace stayaway::mds
