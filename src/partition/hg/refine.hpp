// Boundary Fiduccia–Mattheyses refinement for hypergraph bisections.
//
// Standard FM with gain buckets: two priority queues (one per move
// direction), O(1) gain updates through the four critical-net rules,
// pass-based hill climbing with rollback to the best prefix, and an
// early-exit window. For a bisection the connectivity-1 cutsize is the
// cut-net cost (lambda - 1 == 1 for every cut net).
#pragma once

#include <array>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "partition/config.hpp"
#include "partition/hg/coarsen.hpp"  // FixedSides
#include "util/bucket_queue.hpp"
#include "util/rng.hpp"

namespace fghp::part::hgr {

/// Reusable bisection refiner (scratch buffers survive across levels).
class BisectionFM {
 public:
  explicit BisectionFM(const PartitionConfig& cfg) : cfg_(cfg) {}

  /// Vertices with a non-negative side pin are never moved (may be null or
  /// empty for "nothing fixed"; the pointee must outlive the refiner calls).
  void set_fixed(const hgc::FixedSides* fixed) { fixed_ = fixed; }

  /// Refines a complete 2-way partition in place, never leaving a side above
  /// maxWeight (a partition that *starts* above is first repaired, see
  /// rebalance). Returns the resulting cut (sum of costs of cut nets).
  weight_t refine(const hg::Hypergraph& h, hg::Partition& p,
                  const std::array<weight_t, 2>& maxWeight, Rng& rng);

  /// Greedily moves vertices out of overweight sides until both sides fit
  /// (cheapest-damage moves first). No-op if already feasible.
  void rebalance(const hg::Hypergraph& h, hg::Partition& p,
                 const std::array<weight_t, 2>& maxWeight);

  /// Current cut of a 2-way partition (recomputed from scratch).
  static weight_t compute_cut(const hg::Hypergraph& h, const hg::Partition& p);

 private:
  void attach(const hg::Hypergraph& h, const hg::Partition& p);
  idx_t gain_of(const hg::Hypergraph& h, const hg::Partition& p, idx_t v) const;
  /// One FM pass; returns cut after rollback to the best prefix.
  weight_t pass(const hg::Hypergraph& h, hg::Partition& p,
                const std::array<weight_t, 2>& maxWeight, weight_t startCut, Rng& rng);
  void apply_move(const hg::Hypergraph& h, hg::Partition& p, idx_t v, bool updateGains);

  bool is_fixed(idx_t v) const {
    return fixed_ != nullptr && !fixed_->empty() &&
           (*fixed_)[static_cast<std::size_t>(v)] >= 0;
  }

  const PartitionConfig& cfg_;
  const hgc::FixedSides* fixed_ = nullptr;
  std::vector<std::array<idx_t, 2>> pinsIn_;  // per net: pins on side 0 / 1
  std::array<BucketQueue, 2> queue_;          // [from-side]
  std::vector<char> locked_;
  std::vector<idx_t> activate_;               // scratch: newly boundary vertices
};

}  // namespace fghp::part::hgr
