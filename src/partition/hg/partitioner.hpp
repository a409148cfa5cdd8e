// Public facade of the multilevel hypergraph partitioner (the PaToH-style
// engine the fine-grain and 1D hypergraph models run on).
#pragma once

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/metrics.hpp"
#include "hypergraph/partition.hpp"
#include "partition/config.hpp"

namespace fghp::part {

struct HgResult {
  hg::Partition partition;
  weight_t cutsize = 0;       ///< connectivity-1 cutsize, eq. (3)
  idx_t numCutNets = 0;
  double imbalance = 0.0;     ///< max part weight / avg - 1
  double seconds = 0.0;       ///< wall-clock partitioning time
  idx_t numRecoveries = 0;    ///< bisection retries/fallbacks taken
                              ///< (0 = clean run)
  idx_t numDegraded = 0;      ///< RB nodes demoted by the deadline ladder
                              ///< (coarsen-light or greedy; 0 = full quality)
};

/// Partitions h into K equally-weighted parts minimizing the
/// connectivity-1 cutsize of eq. (3).
/// Deterministic in (h, K, cfg.seed).
///
/// `fixedPart` (optional; one entry per vertex, kInvalidIdx = free) pins
/// vertices to parts — the paper's §3 accommodation of reduction problems
/// whose input/output elements are pre-assigned to processors ("those part
/// vertices must be fixed to corresponding parts during the partitioning").
/// Fixed vertices are honored exactly; refinement never moves them.
///
/// Robustness: when cfg.faultSpec is non-empty it is installed as the
/// process fault spec for the duration of the call (util/fault.hpp).
/// Recoverable bisection failures are retried (see hgrb::partition_recursive)
/// and counted in HgResult::numRecoveries; cfg.validateLevel == kStrict
/// additionally runs deep hypergraph and partition invariant checks between
/// pipeline phases, throwing fghp::InvariantError on violation.
///
/// Deadlines: with cfg.cancel carrying a deadline, an expiring run degrades
/// (cfg.degradeOnDeadline, the default) instead of failing — remaining RB
/// subtrees drop to cheaper rungs (counted in numDegraded) and the quality
/// polish phases (K-way refine, V-cycles) are skipped, but the balance
/// repair still runs, so the returned partition is always valid and
/// balance-feasible. A manual cancel() throws
/// CancelledError at the next check-point; with degradation off an expired
/// deadline throws DeadlineExceededError. Metrics and trace capture are
/// still flushed on either throw by the CLI layer.
HgResult partition_hypergraph(const hg::Hypergraph& h, idx_t K, const PartitionConfig& cfg,
                              const std::vector<idx_t>& fixedPart = {});

}  // namespace fghp::part
