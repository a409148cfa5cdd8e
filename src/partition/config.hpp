// Shared configuration for the multilevel partitioners (hypergraph and
// graph). Defaults reproduce the paper's setup: eps = 0.03 (the "< 3%
// imbalance" of §4). The hypergraph partitioner always minimizes the
// connectivity-minus-one cutsize of eq. (3), which equals the communication
// volume; the tuning values no caller changes are constants in
// partition/multilevel.hpp.
#pragma once

#include <cstdint>
#include <string>

#include "util/cancel.hpp"
#include "util/types.hpp"

namespace fghp::part {

enum class ValidateLevel {
  kNone,    ///< trust the caller; only debug asserts
  kBasic,   ///< the always-on preconditions (default)
  kStrict,  ///< also deep-validate the hypergraph and the partition between
            ///< pipeline phases (InvariantError on any inconsistency)
};

/// Which fine-grain partitioning engine runs (see DESIGN.md §15). Only the
/// fine-grain model dispatches on this; every other model is multilevel-only.
enum class PartitionMethod {
  kMultilevel,   ///< the paper's PaToH-style multilevel stack (default)
  kGeometric,    ///< recursive weighted-median splits on (row, col) points
  kGeometricFm,  ///< geometric initial partition + one K-way FM refine sweep
};

inline const char* method_name(PartitionMethod m) {
  switch (m) {
    case PartitionMethod::kMultilevel: return "multilevel";
    case PartitionMethod::kGeometric: return "geometric";
    case PartitionMethod::kGeometricFm: return "geometric-fm";
  }
  return "?";
}

/// Parses a --method string; returns false on an unknown name.
inline bool parse_method(const std::string& name, PartitionMethod& out) {
  if (name == "multilevel") out = PartitionMethod::kMultilevel;
  else if (name == "geometric") out = PartitionMethod::kGeometric;
  else if (name == "geometric-fm") out = PartitionMethod::kGeometricFm;
  else return false;
  return true;
}

struct PartitionConfig {
  /// Maximum allowed imbalance ratio eps of eq. (1).
  double epsilon = 0.03;

  /// Master seed; every run is deterministic in (inputs, seed).
  std::uint64_t seed = 1;

  /// Which fine-grain engine runs: the multilevel stack (paper quality), the
  /// geometric fast path, or geometric + one FM sweep.
  /// Quality-vs-time tradeoffs are measured by bench/bench_pareto.
  PartitionMethod method = PartitionMethod::kMultilevel;

  /// Coarsening stops after this many levels at most (see also kCoarsenTo
  /// and kMinReductionFactor in partition/multilevel.hpp).
  idx_t maxCoarsenLevels = 64;

  /// Number of initial-partitioning attempts at the coarsest level; they
  /// alternate greedy growing and random bisection, each FM-refined.
  idx_t numInitialRuns = 8;

  /// FM refinement: maximum passes per level.
  idx_t maxFmPasses = 3;

  /// Passes of the greedy direct K-way polish that follows recursive
  /// bisection whenever K > 2 (an extension over the paper's PaToH pipeline).
  idx_t kwayRefinePasses = 2;

  /// Threads for task-parallel recursive bisection. 0 = auto (FGHP_THREADS
  /// if set, else hardware concurrency); 1 = the serial code path. The
  /// partition is identical at every thread count: each recursion branch's
  /// Rng stream is derived before the branches fork.
  idx_t numThreads = 0;

  /// Sub-problems with fewer vertices than this recurse serially — forking
  /// a task costs more than partitioning a tiny side.
  idx_t minParallelVertices = 2048;

  /// Attempts per bisection node before degrading to the deterministic
  /// greedy split: attempt 0 is the normal run; each retry reseeds the Rng
  /// stream and relaxes the per-side caps. Every retry and fallback is
  /// recorded in the warning log and counted in HgResult::numRecoveries.
  idx_t maxBisectAttempts = 3;

  /// Cooperative cancellation / deadline for this run (util/cancel.hpp).
  /// Default-constructed = inactive: no deadline, near-zero check-point cost,
  /// and the partition stays bit-identical to a build without this layer.
  cancel::CancelToken cancel;

  /// When the deadline budget runs low (or out), degrade remaining
  /// recursive-bisection subtrees — full multilevel -> coarsen-light ->
  /// deterministic greedy split — instead of throwing DeadlineExceededError,
  /// so an expiring request still returns a valid, balance-feasible
  /// partition. Degraded nodes are counted in HgResult/GpResult::numDegraded.
  /// A manual cancel() always throws regardless of this flag.
  bool degradeOnDeadline = true;

  /// How much consistency checking runs between pipeline phases.
  ValidateLevel validateLevel = ValidateLevel::kBasic;

  /// Fault-injection spec installed for this run (see util/fault.hpp);
  /// empty = leave the process-global spec (FGHP_FAULT_SPEC) in place.
  std::string faultSpec;
};

}  // namespace fghp::part
