// The geometric fast-path partitioner: nonzeros as weighted 2D points,
// recursively bisected at weighted medians along the longer axis by the
// unified RB engine (partition/rb_driver.hpp via partition/geo/rb_traits.hpp).
//
// Quality-for-time tradeoff versus the multilevel stack: no coarsening, no
// FM, no hypergraph — just counting sorts — so partitioning is an order of
// magnitude faster while the cut is typically within a small factor (the
// Pareto frontier is measured by bench/bench_pareto). Because the point
// lines ARE the fine-grain nets, the telescoped per-level cut equals the
// exact lambda-1 connectivity cutsize, reported without ever building the
// hypergraph. Deterministic in (points, K, cfg.seed) at any thread count.
#pragma once

#include <vector>

#include "partition/config.hpp"
#include "partition/geo/points.hpp"

namespace fghp::part::geo {

struct GeoResult {
  GeoPartition partition;
  weight_t cutsize = 0;     ///< exact lambda-1 connectivity cutsize
  double imbalance = 0.0;   ///< max_k W_k / W_avg - 1
  double seconds = 0.0;     ///< partitioning wall time
  idx_t numRecoveries = 0;  ///< bisection retries + greedy fallbacks taken
  idx_t numDegraded = 0;    ///< nodes demoted by the deadline ladder
};

/// Partitions the point set into K parts by recursive weighted-median
/// bisection. Shares the engine's whole operational surface: fault sites
/// geo.split / geo.retry with the retry -> greedy recovery ladder, per-node
/// and mid-split cancellation check-points, the deadline degradation ladder,
/// tracing spans, and strict revalidation under cfg.validateLevel. The
/// result is always balance-feasible (hg::balance_cap); a best-effort
/// bisection that overshoots is repaired by a deterministic rebalance pass.
/// Fixed (pre-assigned) vertices are a multilevel-only feature.
GeoResult partition_points_geometric(const GeoPoints& pts, idx_t K,
                                     const PartitionConfig& cfg);

}  // namespace fghp::part::geo
