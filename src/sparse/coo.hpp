// Coordinate (triplet) sparse matrix format — the assembly/interchange
// format. Generators produce COO; everything else consumes CSR (see
// sparse/csr.hpp, sparse/convert.hpp).
#pragma once

#include <vector>

#include "util/types.hpp"

namespace fghp::sparse {

/// One nonzero entry.
struct Triplet {
  idx_t row;
  idx_t col;
  double value;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Coordinate-format sparse matrix. Entries may be unsorted and may contain
/// duplicates until normalize() is called.
class Coo {
 public:
  Coo() = default;
  Coo(idx_t numRows, idx_t numCols);

  idx_t num_rows() const { return numRows_; }
  idx_t num_cols() const { return numCols_; }
  idx_t nnz() const { return static_cast<idx_t>(entries_.size()); }

  /// Appends one entry; indices must be in range.
  void add(idx_t row, idx_t col, double value);

  const std::vector<Triplet>& entries() const { return entries_; }
  std::vector<Triplet>& entries() { return entries_; }

  /// Sorts entries row-major and sums duplicates at the same (row, col).
  /// Entries whose summed value underflows to exactly 0.0 are *kept*
  /// (structural zeros matter to the decomposition models).
  void normalize();

  /// True if entries are row-major sorted with no duplicate coordinates.
  bool is_normalized() const;

  /// Mirror entries across the diagonal (a_ij -> also a_ji), skipping
  /// diagonal entries. Does not normalize.
  void symmetrize();

 private:
  idx_t numRows_ = 0;
  idx_t numCols_ = 0;
  std::vector<Triplet> entries_;
};

}  // namespace fghp::sparse
