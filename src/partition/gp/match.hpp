// Graph coarsening: heavy-edge matching and contraction (MeTiS-style).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace fghp::part::gpm {

/// fine vertex -> cluster id (densified by contract_graph).
using ClusterMap = std::vector<idx_t>;

/// Heavy-edge matching: each unmatched vertex pairs with the unmatched
/// neighbor across its heaviest edge.
ClusterMap match_heavy_edge(const gp::Graph& g, Rng& rng);

struct GCoarseLevel {
  gp::Graph coarse;
  std::vector<idx_t> fineToCoarse;
};

/// Contracts under the cluster map: weights summed, parallel edges merged,
/// self loops dropped.
GCoarseLevel contract_graph(const gp::Graph& fine, const ClusterMap& clusters);

/// One heavy-edge matching + contraction round.
GCoarseLevel coarsen_one_level(const gp::Graph& fine, Rng& rng);

}  // namespace fghp::part::gpm
