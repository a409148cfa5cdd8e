// Geometric problem traits for the unified recursive-bisection engine
// (partition/rb_driver.hpp): weighted-median splits on (row, col) point
// sets, line-crossing cut telescoping (exactly the lambda-1 connectivity
// objective, see partition/geo/points.hpp), and the deterministic greedy
// split as the recovery-ladder floor. Like the graph stack, the fast path
// has no fixed-vertex mechanism, so the engine's fixed sides must be empty.
#pragma once

#include "partition/geo/points.hpp"
#include "partition/geo/split.hpp"
#include "partition/multilevel.hpp"
#include "util/assert.hpp"

namespace fghp::part::georb {

struct GeoRbTraits {
  using Problem = geo::GeoPoints;
  using Partition = geo::GeoPartition;

  static constexpr const char* kBisectSite = "geo.split";
  static constexpr const char* kRetrySite = "geo.retry";

  static Partition bisect(const Problem& pts, const std::array<weight_t, 2>& target,
                          const std::array<weight_t, 2>& cap, const PartitionConfig& cfg,
                          Rng& rng, const FixedSides& fixed) {
    FGHP_REQUIRE(fixed.empty(), "the geometric fast path does not support fixed vertices");
    return geo::median_split(pts, target, cap, cfg, rng);
  }

  static Partition greedy_fallback(const Problem& pts, const std::array<weight_t, 2>& target,
                                   const FixedSides& fixed) {
    FGHP_REQUIRE(fixed.empty(), "the geometric fast path does not support fixed vertices");
    return geo::greedy_split(pts, target);
  }

  static weight_t bisection_cut(const Problem& pts, const Partition& p) {
    return geo::split_cut(pts, p);
  }

  static RbSide<GeoRbTraits> extract_side(const Problem& pts, const Partition& bisection,
                                          idx_t side) {
    geo::GeoSideExtract e = geo::extract_side(pts, bisection, side);
    return {std::move(e.sub), std::move(e.toParent)};
  }

  static void validate_bisection(const Problem& pts, const Partition& p) {
    geo::validate_partition_or_throw(pts, p, "geo-bisection");
  }

  // The median split is two counting sweeps per point — roughly 50x cheaper
  // per unit than a multilevel bisection — so the shared deadline cost model
  // (calibrated in engine microseconds-per-unit) sees a scaled size. Without
  // this, a tight deadline would demote geometric nodes that finish in time.
  static double problem_size(const Problem& pts) {
    return 0.02 * static_cast<double>(pts.num_vertices());
  }
};

}  // namespace fghp::part::georb
