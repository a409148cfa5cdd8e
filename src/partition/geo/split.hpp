// Geometric bisection primitives over weighted 2D point sets: the recursive
// weighted-median split (the fast-path counterpart of multilevel_bisect) and
// the deterministic greedy fallback the recovery ladder drops to.
#pragma once

#include <array>
#include <vector>

#include "partition/config.hpp"
#include "partition/geo/points.hpp"
#include "util/rng.hpp"

namespace fghp::part::geo {

/// Bisects the point set at the weighted median along its longer axis.
///
/// Points are counting-sorted by the chosen coordinate (stable, so the
/// result is a pure function of the inputs) and swept in line order into
/// side 0 until target[0] is met; because points on one coordinate line stay
/// contiguous, at most one line is split by the cut. `rng` is
/// consumed only to stay stream-compatible with the engine's retry contract;
/// the split itself is deterministic. Runs a cooperative cancel check-point
/// per coordinate bucket ("geo.split" phase), so a deadline or manual cancel
/// lands mid-split rather than only between bisection nodes.
GeoPartition median_split(const GeoPoints& pts, const std::array<weight_t, 2>& target,
                          const std::array<weight_t, 2>& cap, const PartitionConfig& cfg,
                          Rng& rng);

/// Deterministic last-resort split: points in index order to the side with
/// the most remaining target. Never throws, never allocates per point.
GeoPartition greedy_split(const GeoPoints& pts, const std::array<weight_t, 2>& target);

/// Number of coordinate lines (rows + cols) with points on both sides of a
/// bisection. Summed over all recursion nodes this telescopes exactly to the
/// lambda-1 connectivity cutsize: a net spanning L leaves is counted once at
/// each of the L - 1 bisections that first separated its points.
weight_t split_cut(const GeoPoints& pts, const GeoPartition& bisection);

/// Sub-point-set of one bisection side plus its vertex mapping. Coordinates
/// are never renumbered (numRows/numCols carry over), so line identities —
/// and therefore the telescoped cut — are preserved across levels.
struct GeoSideExtract {
  GeoPoints sub;
  std::vector<idx_t> toParent;
};
GeoSideExtract extract_side(const GeoPoints& pts, const GeoPartition& bisection, idx_t side);

}  // namespace fghp::part::geo
