// Shared vocabulary of the unified multilevel recursive-bisection engine
// (partition/rb_driver.hpp).
//
// The engine owns everything that is identical between the paper's
// fine-grain hypergraph partitioner and the Table-2 graph baseline: the
// fork-join task decomposition over the thread pool, deterministic
// per-subproblem RNG stream derivation, cut-cost telescoping, phase timers,
// fault-point arming, the retry-with-reseed/relax -> deterministic-greedy
// recovery ladder, recovery counters, and strict revalidation. Everything
// that differs — how a sub-problem is bisected, how a bisection side is
// extracted (cut-net splitting vs. cut-edge dropping), how the cut is
// measured, how a partition is deep-validated — enters through a *problem
// traits* struct:
//
//   struct Traits {
//     using Problem = ...;    // hg::Hypergraph | gp::Graph
//     using Partition = ...;  // hg::Partition  | gp::GPartition
//     // Fault sites armed at each bisection node / retry attempt.
//     static constexpr const char* kBisectSite;
//     static constexpr const char* kRetrySite;
//     // One multilevel bisection under per-side caps (may throw).
//     static Partition bisect(const Problem&, const std::array<weight_t, 2>& target,
//                             const std::array<weight_t, 2>& cap,
//                             const PartitionConfig&, Rng&, const FixedSides&);
//     // Deterministic last-resort split when every attempt threw.
//     static Partition greedy_fallback(const Problem&,
//                                      const std::array<weight_t, 2>& target,
//                                      const FixedSides&);
//     // Cut cost of one bisection (telescopes to the K-way objective).
//     static weight_t bisection_cut(const Problem&, const Partition&);
//     // Sub-problem of one bisection side plus its vertex mapping.
//     static RbSide<Traits> extract_side(const Problem&, const Partition& bisection,
//                                        idx_t side);
//     // Deep consistency check (throws InvariantError); strict mode only.
//     static void validate_bisection(const Problem&, const Partition&);
//     // Work-size estimate for the degradation ladder's cost model
//     // (vertices + pins/edges — proportional to one bisection's cost).
//     static double problem_size(const Problem&);
//   };
//
// The Problem type must expose num_vertices() / total_vertex_weight() /
// vertex_weight(v), and the Partition type part_of(v) / part_weight(side) /
// a (problem, K, assignment) constructor — both families already share that
// surface.
//
// Determinism contract (DESIGN.md invariant 7): the engine derives every
// recursion branch's Rng stream *before* the branches fork and all recovery
// decisions are functions of (inputs, seed, fault spec) alone, so the final
// partition is bit-identical at any thread count.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace fghp::part {

// Tuning values shared by the hypergraph and graph bisections and the
// hypergraph V-cycle. No caller varies them; a value becomes a
// PartitionConfig field again only when a second caller needs another one.

/// Coarsening stops when this many vertices remain...
inline constexpr idx_t kCoarsenTo = 100;
/// ...or when a level keeps more than this fraction of its vertices.
inline constexpr double kMinReductionFactor = 0.95;

/// FM early exit: a pass aborts after max(kMinFmMoves,
/// kFmEarlyExitFraction * |V|) consecutive moves without a new best cut.
inline constexpr double kFmEarlyExitFraction = 0.25;
inline constexpr idx_t kMinFmMoves = 128;

/// Per-vertex bisection-side pin: -1 = free, 0 / 1 = fixed to that side
/// (the paper's §3 pre-assigned vertices). Empty vector = nothing fixed.
using FixedSides = std::vector<signed char>;

/// Sub-problem of one bisection side plus its vertex mapping.
template <class Traits>
struct RbSide {
  typename Traits::Problem sub;
  std::vector<idx_t> toParent;  ///< sub vertex -> parent vertex
};

/// Result of one recursive-bisection run.
template <class Traits>
struct RbResult {
  typename Traits::Partition partition;  ///< final K-way partition on the input
  weight_t sumOfBisectionCuts = 0;       ///< telescoped per-level cut costs
  idx_t numRecoveries = 0;               ///< bisection retries + greedy fallbacks taken
  idx_t numDegraded = 0;                 ///< nodes demoted by the deadline ladder
};

/// Per-bisection imbalance tolerance such that the product over
/// ceil(log2 K) levels stays within epsilon.
double per_level_epsilon(double epsilon, idx_t K);

}  // namespace fghp::part
