// Recursive bisection to K parts with cut-net splitting.
//
// For the connectivity-1 objective (eq. 3), a net cut by a bisection keeps
// contributing for every further part it gets split across; recursing with
// the *restriction* of every net to each side (Çatalyürek–Aykanat's cut-net
// splitting) makes the per-level cut costs telescope exactly to the K-way
// connectivity-1 cutsize.
//
// The fork-join orchestration, RNG discipline and recovery ladder live in
// the shared engine (partition/rb_driver.hpp); this header keeps the
// hypergraph-specific side extraction and the historical public API.
#pragma once

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "partition/config.hpp"
#include "partition/multilevel.hpp"
#include "util/rng.hpp"

namespace fghp::part::hgrb {

/// Per-bisection imbalance tolerance (shared with the graph stack; see
/// partition/multilevel.hpp).
using fghp::part::per_level_epsilon;

/// Sub-hypergraph of one bisection side plus its vertex mapping.
struct SideExtract {
  hg::Hypergraph sub;
  std::vector<idx_t> toParent;  ///< sub vertex -> parent vertex
};

/// Extracts the side's vertices; nets are restricted to the side (cut-net
/// splitting), and nets that fall below 2 pins are dropped.
SideExtract extract_side(const hg::Hypergraph& h, const hg::Partition& bisection, idx_t side);

struct RecursiveResult {
  hg::Partition partition;       ///< final K-way partition on the input H
  weight_t sumOfBisectionCuts;   ///< telescoped per-level cut costs
  idx_t numRecoveries = 0;       ///< bisection retries + greedy fallbacks taken
  idx_t numDegraded = 0;         ///< nodes demoted by the deadline ladder
};

/// Partitions h into K parts by recursive multilevel bisection. Deterministic
/// in (h, K, cfg.seed). `fixedPart` (optional; kInvalidIdx = free) pins
/// vertices to final parts — the paper's §3 mechanism for reduction problems
/// whose inputs/outputs are pre-assigned to processors.
///
/// Thin wrapper over the unified engine (rb::partition_recursive_rb with the
/// hypergraph traits); see partition/rb_driver.hpp for the recovery-ladder
/// and determinism contract. Every retry and fallback pushes a warning
/// (util/error.hpp) and counts in numRecoveries.
RecursiveResult partition_recursive(const hg::Hypergraph& h, idx_t K,
                                    const PartitionConfig& cfg, Rng& rng,
                                    const std::vector<idx_t>& fixedPart = {});

}  // namespace fghp::part::hgrb
