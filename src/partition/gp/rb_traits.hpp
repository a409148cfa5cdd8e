// Graph problem traits for the unified recursive-bisection engine
// (partition/rb_driver.hpp): multilevel graph bisection with FM refinement,
// cut-edge dropping on extraction (edge-cut telescoping), LPT greedy
// fallback, and deep graph-partition validation in strict mode.
//
// The graph stack has no fixed-vertex mechanism (the paper's pre-assigned
// vertices are a hypergraph-model feature), so the fixed sides passed by the
// engine must stay empty.
#pragma once

#include "graph/gvalidate.hpp"
#include "partition/gp/gbisect.hpp"
#include "partition/gp/ginitial.hpp"
#include "partition/gp/grecursive.hpp"
#include "partition/gp/grefine.hpp"
#include "partition/multilevel.hpp"
#include "util/assert.hpp"

namespace fghp::part::gprb {

struct GpRbTraits {
  using Problem = gp::Graph;
  using Partition = gp::GPartition;

  static constexpr const char* kBisectSite = "grb.bisect";
  static constexpr const char* kRetrySite = "grb.retry";

  static Partition bisect(const Problem& g, const std::array<weight_t, 2>& target,
                          const std::array<weight_t, 2>& cap, const PartitionConfig& cfg,
                          Rng& rng, const FixedSides& fixed) {
    FGHP_REQUIRE(fixed.empty(), "the graph baseline does not support fixed vertices");
    return gpb::multilevel_gbisect(g, target, cap, cfg, rng);
  }

  static Partition greedy_fallback(const Problem& g, const std::array<weight_t, 2>& target,
                                   const FixedSides& fixed) {
    FGHP_REQUIRE(fixed.empty(), "the graph baseline does not support fixed vertices");
    return gpi::greedy_gbisection(g, target);
  }

  static weight_t bisection_cut(const Problem& g, const Partition& p) {
    return gpr::GraphFM::compute_cut(g, p);
  }

  static RbSide<GpRbTraits> extract_side(const Problem& g, const Partition& bisection,
                                         idx_t side) {
    GraphSide e = extract_graph_side(g, bisection, side);
    return {std::move(e.sub), std::move(e.toParent)};
  }

  static void validate_bisection(const Problem& g, const Partition& p) {
    gp::validate_partition_or_throw(g, p, "grb-bisection");
  }

  static double problem_size(const Problem& g) {
    return static_cast<double>(g.num_vertices()) + static_cast<double>(g.num_edges());
  }
};

}  // namespace fghp::part::gprb
