// Nonzeros as weighted 2D points — the substrate of the fast-path fine-grain
// partitioners (geometric recursive splits, optionally FM-polished).
//
// A point v sits at (row[v], col[v]) and carries a nonnegative weight; the
// implicit *nets* are the coordinate lines: every distinct row id is a row
// net over the points on it, every distinct col id a column net. For the
// fine-grain SpMV model (one point per nonzero plus a zero-weight dummy per
// missing diagonal, ids matching models::build_finegrain) these lines are
// exactly the hypergraph's m_i / n_j nets, so the lambda-1 connectivity
// cutsize computed here equals the hypergraph cutsize — and the total
// communication volume — without ever materializing pin lists.
//
// GeoPoints/GeoPartition expose the Problem/Partition surface the unified
// recursive-bisection engine requires (partition/multilevel.hpp), so the
// geometric partitioner is just a third Traits instantiation of rb_driver.
#pragma once

#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace fghp::part::geo {

struct GeoPoints {
  std::vector<idx_t> row, col;   ///< point coordinates (global ids, never renumbered)
  std::vector<weight_t> wgt;     ///< per-point weights (>= 0)
  idx_t numRows = 0;             ///< exclusive row-coordinate bound
  idx_t numCols = 0;             ///< exclusive col-coordinate bound
  weight_t totalWeight = 0;      ///< cached sum of wgt

  idx_t num_vertices() const { return static_cast<idx_t>(row.size()); }
  weight_t total_vertex_weight() const { return totalWeight; }
  weight_t vertex_weight(idx_t v) const { return wgt[static_cast<std::size_t>(v)]; }
};

/// Builds a point set, validating coordinates and caching the total weight.
GeoPoints make_points(std::vector<idx_t> row, std::vector<idx_t> col,
                      std::vector<weight_t> wgt, idx_t numRows, idx_t numCols);

/// K-way partition of a point set: per-point part plus maintained part
/// weights (mirrors hg::Partition's surface for the shared RB engine).
class GeoPartition {
 public:
  GeoPartition() = default;

  /// Adopts an existing assignment (every entry in [0, numParts)).
  GeoPartition(const GeoPoints& pts, idx_t numParts, std::vector<idx_t> assignment);

  idx_t num_parts() const { return numParts_; }
  idx_t num_vertices() const { return static_cast<idx_t>(part_.size()); }
  idx_t part_of(idx_t v) const { return part_[static_cast<std::size_t>(v)]; }
  weight_t part_weight(idx_t part) const {
    return partWeight_[static_cast<std::size_t>(part)];
  }
  const std::vector<weight_t>& part_weights() const { return partWeight_; }
  const std::vector<idx_t>& assignment() const { return part_; }
  bool complete() const;

 private:
  idx_t numParts_ = 0;
  std::vector<idx_t> part_;
  std::vector<weight_t> partWeight_;
};

/// Exact lambda-1 connectivity cutsize of a complete point partition under
/// unit net costs: sum over coordinate lines of (distinct parts - 1).
weight_t connectivity_cutsize(const GeoPoints& pts, const GeoPartition& p);

/// max_k W_k / W_avg - 1 (0 = perfect balance or empty point set).
double imbalance(const GeoPoints& pts, const GeoPartition& p);

/// Deep consistency check: completeness, in-range parts, part weights that
/// match the point weights. Throws InvariantError naming `where`.
void validate_partition_or_throw(const GeoPoints& pts, const GeoPartition& p,
                                 const char* where);

}  // namespace fghp::part::geo
