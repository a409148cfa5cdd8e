// Partition quality metrics: the two cutsize definitions of the paper's §2
// (eq. 2 cut-net, eq. 3 connectivity-minus-one), per-net connectivity sets,
// and the balance criterion (eq. 1).
#pragma once

#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

namespace fghp::hg {

enum class CutMetric {
  kCutNet,        ///< eq. (2): sum of costs of cut nets
  kConnectivity,  ///< eq. (3): sum of c_j * (lambda_j - 1)
};

/// Connectivity lambda_j of one net under a complete partition.
idx_t net_connectivity(const Hypergraph& h, const Partition& p, idx_t net);

/// Connectivity set Lambda_j (sorted part ids) of one net.
std::vector<idx_t> net_connectivity_set(const Hypergraph& h, const Partition& p, idx_t net);

/// chi(Pi) under the chosen metric. Partition must be complete.
weight_t cutsize(const Hypergraph& h, const Partition& p, CutMetric metric);

/// Number of cut (external) nets.
idx_t num_cut_nets(const Hypergraph& h, const Partition& p);

/// max_k W_k / W_avg - 1 (0 = perfect balance). Returns 0 for empty H.
double imbalance(const Hypergraph& h, const Partition& p);

/// The paper's "percent imbalance ratio": 100 * (Wmax - Wavg) / Wavg.
double percent_imbalance(const Hypergraph& h, const Partition& p);

/// True if every part satisfies W_k <= W_avg * (1 + eps)  (eq. 1).
bool is_balanced(const Hypergraph& h, const Partition& p, double eps);

/// Integrality-aware per-part weight cap: floor(W_avg * (1 + eps)), but never
/// below ceil(total / K) — with unit-granularity weights no partition can put
/// less than ceil(total / K) on its heaviest part, so eq. (1) is infeasible
/// below that line and every engine (multilevel repair, geometric targets)
/// treats this value as the feasibility bound.
weight_t balance_cap(weight_t totalWeight, idx_t K, double eps);

/// True when every part weight is within balance_cap — eq. (1) relaxed by
/// weight integrality. A partition can satisfy this while is_balanced is
/// false only in the degenerate regime where eps * W_avg < 1.
bool is_balance_feasible(const Hypergraph& h, const Partition& p, double eps);

}  // namespace fghp::hg
