// Multilevel coarsening for hypergraphs: heavy connectivity matching
// followed by contraction with single-pin-net removal and
// identical-net merging (the PaToH memory/speed trick that matters most on
// fine-grain hypergraphs, where many rows/columns share sparsity patterns).
#pragma once

#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "partition/multilevel.hpp"
#include "util/rng.hpp"
#include "util/sparse_acc.hpp"

namespace fghp::part::hgc {

/// fine-vertex -> cluster-id map (ids need not be dense; contract() densifies).
using ClusterMap = std::vector<idx_t>;

/// Per-vertex bisection-side pin: -1 = free, 0 / 1 = fixed to that side
/// (the paper's §3 pre-assigned vertices). Empty vector = nothing fixed.
/// Shared with the recursive-bisection engine (see partition/multilevel.hpp).
using FixedSides = part::FixedSides;

/// Heavy Connectivity Matching under a merge filter: visits the vertices in
/// random order and pairs each unmatched v with the unmatched u,
/// mayMerge(v, u), sharing the largest total cost of common nets. Nets
/// larger than maxNetSize are skipped while scoring.
template <class MayMerge>
ClusterMap cluster_hcm_filtered(const hg::Hypergraph& h, Rng& rng, idx_t maxNetSize,
                                MayMerge mayMerge) {
  const idx_t n = h.num_vertices();
  ClusterMap cluster(static_cast<std::size_t>(n), kInvalidIdx);
  SparseAccumulator<double> score(n);
  idx_t nextId = 0;

  for (idx_t v : rng.permutation(n)) {
    if (cluster[static_cast<std::size_t>(v)] != kInvalidIdx) continue;
    score.clear();
    for (idx_t net : h.nets(v)) {
      const idx_t sz = h.net_size(net);
      if (sz < 2 || sz > maxNetSize) continue;
      const double s = static_cast<double>(h.net_cost(net));
      for (idx_t u : h.pins(net)) {
        if (u != v) score.add(u, s);
      }
    }
    idx_t best = kInvalidIdx;
    double bestScore = 0.0;
    for (idx_t u : score.keys()) {
      if (cluster[static_cast<std::size_t>(u)] != kInvalidIdx) continue;
      if (!mayMerge(v, u)) continue;
      const double s = score.value(u);
      if (s > bestScore) {
        bestScore = s;
        best = u;
      }
    }
    const idx_t id = nextId++;
    cluster[static_cast<std::size_t>(v)] = id;
    if (best != kInvalidIdx) cluster[static_cast<std::size_t>(best)] = id;
  }
  return cluster;
}

/// HCM for bisection coarsening: vertices fixed to different sides never
/// merge.
ClusterMap cluster_hcm(const hg::Hypergraph& h, Rng& rng, idx_t maxNetSize,
                       const FixedSides& fixed = {});

/// One coarsening level.
struct CoarseLevel {
  hg::Hypergraph coarse;
  std::vector<idx_t> fineToCoarse;  ///< dense ids in [0, coarse.num_vertices())
  FixedSides coarseFixed;           ///< side pins inherited by the clusters (may be empty)
};

/// Contracts `fine` under `clusters` (ids densified internally): coarse
/// vertex weights are cluster sums; per-net pins are deduplicated;
/// single-pin nets are dropped (they can never be cut); structurally
/// identical nets are merged with summed costs. When `fixed` is non-empty,
/// the coarse level inherits each cluster's side pin.
CoarseLevel contract(const hg::Hypergraph& fine, const ClusterMap& clusters,
                     const FixedSides& fixed = {});

/// Runs one HCM pass and contracts. Convenience wrapper.
CoarseLevel coarsen_one_level(const hg::Hypergraph& fine, Rng& rng, const FixedSides& fixed = {});

/// Net-size cutoff for matching: max(64, 3 * average net size).
idx_t effective_max_net_size(const hg::Hypergraph& h);

}  // namespace fghp::part::hgc
