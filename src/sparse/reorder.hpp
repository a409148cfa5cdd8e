// Matrix reordering utilities: symmetric permutations, general row/column
// permutations, bandwidth, and reverse Cuthill-McKee ordering — the
// standard preprocessing companions of a decomposition library (solvers
// reorder for bandwidth/fill before distributing).
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace fghp::sparse {

/// Maximum |i - j| over stored entries (0 for diagonal/empty matrices).
idx_t bandwidth(const Csr& a);

/// B = P A P^T for a square matrix: entry (i, j) moves to
/// (newIndex[i], newIndex[j]). newIndex must be a permutation of 0..n-1.
Csr permute_symmetric(const Csr& a, const std::vector<idx_t>& newIndex);

/// General B[rowNew[i], colNew[j]] = A[i, j].
Csr permute(const Csr& a, const std::vector<idx_t>& rowNew, const std::vector<idx_t>& colNew);

/// Reverse Cuthill-McKee ordering of the symmetrized pattern: BFS from a
/// minimum-degree vertex of each component, neighbors visited in increasing
/// degree, final order reversed. Returns newIndex (old -> new); applying it
/// with permute_symmetric typically shrinks the bandwidth substantially.
std::vector<idx_t> rcm_ordering(const Csr& a);

/// Independent row and column permutations (old -> new) of a rectangular
/// pattern, produced by one joint ordering sweep of its bipartite
/// row/column graph.
struct BipartiteOrdering {
  std::vector<idx_t> rowNew;  ///< size nRows
  std::vector<idx_t> colNew;  ///< size nCols
};

/// Reverse Cuthill-McKee over the bipartite graph of an arbitrary (possibly
/// rectangular) pattern given as row-grouped index arrays: row r's columns
/// are colIdx[rowPtr[r] .. rowPtr[r+1]). One BFS orders rows and columns
/// jointly (min-degree seed per component, neighbors by increasing degree,
/// final order reversed), so rows that share columns land near each other
/// and vice versa — the cache-locality reordering exec::compile applies
/// inside each processor's local block (DESIGN.md §12). Columns referenced
/// by no row are legal; they sort to the end of the column permutation.
BipartiteOrdering bipartite_rcm(idx_t nRows, idx_t nCols,
                                const std::vector<idx_t>& rowPtr,
                                const std::vector<idx_t>& colIdx);

}  // namespace fghp::sparse
