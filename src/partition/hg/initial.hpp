// Initial bisection of the coarsest hypergraph: Greedy Hypergraph Growing
// (GHG) and random balanced assignment, each polished with FM; the driver
// keeps the best of numInitialRuns attempts.
#pragma once

#include <array>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "partition/config.hpp"
#include "partition/hg/coarsen.hpp"  // FixedSides
#include "util/rng.hpp"

namespace fghp::part::hgi {

using hgc::FixedSides;

/// Random assignment honoring the side targets (greedy first-fit-decreasing
/// on a shuffled order). Fixed vertices go to their pinned side first.
hg::Partition random_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                               Rng& rng, const FixedSides& fixed = {});

/// GHG: start with everything in side 0, grow side 1 from a random seed by
/// repeatedly moving the highest-gain candidate until it reaches its target.
/// Vertices fixed to side 0 never move; side-1-fixed vertices seed the
/// growth front.
hg::Partition ghg_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                            Rng& rng, const FixedSides& fixed = {});

/// Best of cfg.numInitialRuns attempts (GHG on even runs, random on odd
/// runs), each FM-refined under maxWeight. Feasible beats infeasible; ties by cut.
hg::Partition initial_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                                const std::array<weight_t, 2>& maxWeight,
                                const PartitionConfig& cfg, Rng& rng,
                                const FixedSides& fixed = {});

/// Deterministic last-resort split used when every multilevel bisection
/// attempt failed (see PartitionConfig::maxBisectAttempts): longest-
/// processing-time-first — vertices in decreasing weight order (ties by id)
/// go to the side with more remaining room. Ignores the cut entirely but
/// always yields a complete bisection whose balance is as good as the
/// vertex weights permit. Fixed vertices land on their pinned side.
hg::Partition greedy_bisection(const hg::Hypergraph& h, const std::array<weight_t, 2>& target,
                               const FixedSides& fixed = {});

}  // namespace fghp::part::hgi
