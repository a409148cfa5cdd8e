// Greedy direct K-way refinement under the connectivity-1 objective: a
// post-pass over recursive bisection (an extension over the paper's PaToH
// pipeline).
//
// Per net we maintain the multiset of parts its pins touch; the gain of
// moving v from p to q is +c for every net whose last p-pin leaves and -c
// for every net that gains q as a brand-new part — exactly the delta of
// eq. (3).
#pragma once

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "partition/config.hpp"
#include "util/rng.hpp"

namespace fghp::part::hgk {

/// Runs cfg.kwayRefinePasses greedy passes (boundary vertices, random order,
/// best strictly-positive-gain feasible move). Returns the total cutsize
/// improvement (>= 0). Balance (eq. 1 with cfg.epsilon) is preserved.
/// Vertices pinned in `fixedPart` (optional; kInvalidIdx = free) never move.
weight_t kway_refine(const hg::Hypergraph& h, hg::Partition& p, const PartitionConfig& cfg,
                     Rng& rng, const std::vector<idx_t>& fixedPart = {});

/// Repairs eq.-(1) violations left by recursive bisection (integer rounding
/// of the per-level tolerance can compound on small sub-problems): moves
/// minimum-cut-damage vertices out of overloaded parts into the lightest
/// parts until every part fits under W_avg * (1 + eps), whenever vertex
/// weights permit. Returns the number of vertices moved.
idx_t kway_rebalance(const hg::Hypergraph& h, hg::Partition& p, double epsilon, Rng& rng,
                     const std::vector<idx_t>& fixedPart = {});

}  // namespace fghp::part::hgk
