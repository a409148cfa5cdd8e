// Hypergraph problem traits for the unified recursive-bisection engine
// (partition/rb_driver.hpp): multilevel bisection with FM refinement,
// cut-net splitting on extraction (connectivity-1 telescoping, DESIGN.md
// invariant 3), LPT greedy fallback, and deep hypergraph-partition
// validation in strict mode.
#pragma once

#include "hypergraph/validate.hpp"
#include "partition/hg/bisect.hpp"
#include "partition/hg/initial.hpp"
#include "partition/hg/recursive.hpp"
#include "partition/hg/refine.hpp"
#include "partition/multilevel.hpp"

namespace fghp::part::hgrb {

struct HgRbTraits {
  using Problem = hg::Hypergraph;
  using Partition = hg::Partition;

  static constexpr const char* kBisectSite = "rb.bisect";
  static constexpr const char* kRetrySite = "rb.retry";

  static Partition bisect(const Problem& h, const std::array<weight_t, 2>& target,
                          const std::array<weight_t, 2>& cap, const PartitionConfig& cfg,
                          Rng& rng, const FixedSides& fixed) {
    return hgb::multilevel_bisect(h, target, cap, cfg, rng, fixed);
  }

  static Partition greedy_fallback(const Problem& h, const std::array<weight_t, 2>& target,
                                   const FixedSides& fixed) {
    return hgi::greedy_bisection(h, target, fixed);
  }

  static weight_t bisection_cut(const Problem& h, const Partition& p) {
    return hgr::BisectionFM::compute_cut(h, p);
  }

  static RbSide<HgRbTraits> extract_side(const Problem& h, const Partition& bisection,
                                         idx_t side) {
    SideExtract e = hgrb::extract_side(h, bisection, side);
    return {std::move(e.sub), std::move(e.toParent)};
  }

  static void validate_bisection(const Problem& h, const Partition& p) {
    hg::validate_partition_or_throw(h, p, "rb-bisection");
  }

  static double problem_size(const Problem& h) {
    return static_cast<double>(h.num_vertices()) + static_cast<double>(h.num_pins());
  }
};

}  // namespace fghp::part::hgrb
