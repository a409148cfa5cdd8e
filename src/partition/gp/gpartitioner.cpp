#include "partition/gp/gpartitioner.hpp"

#include <cmath>
#include <optional>

#include "graph/gvalidate.hpp"
#include "partition/gp/gkway.hpp"
#include "partition/gp/grecursive.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fghp::part {

namespace {

/// Repairs eq.-(1) violations left by recursive bisection: ejects
/// minimum-cut-damage vertices from overloaded parts into the lightest part
/// that still fits (mirror of hgk::kway_rebalance for graphs).
void kway_grebalance(const gp::Graph& g, gp::GPartition& p, double epsilon, Rng& rng) {
  const idx_t K = p.num_parts();
  if (K <= 1) return;
  const double avg = static_cast<double>(g.total_vertex_weight()) / static_cast<double>(K);
  const auto cap = static_cast<weight_t>(std::floor(avg * (1.0 + epsilon) + 1e-9));

  for (idx_t from = 0; from < K; ++from) {
    while (p.part_weight(from) > cap) {
      idx_t bestV = kInvalidIdx;
      idx_t bestTo = kInvalidIdx;
      weight_t bestDamage = 0;
      for (idx_t v : rng.permutation(g.num_vertices())) {
        if (p.part_of(v) != from || g.vertex_weight(v) == 0) continue;
        idx_t to = kInvalidIdx;
        for (idx_t q = 0; q < K; ++q) {
          if (q == from || p.part_weight(q) + g.vertex_weight(v) > cap) continue;
          if (to == kInvalidIdx || p.part_weight(q) < p.part_weight(to)) to = q;
        }
        if (to == kInvalidIdx) continue;
        weight_t damage = 0;
        for (const gp::Adj& a : g.neighbors(v)) {
          if (p.part_of(a.to) == from) damage += a.weight;
          if (p.part_of(a.to) == to) damage -= a.weight;
        }
        if (bestV == kInvalidIdx || damage < bestDamage) {
          bestV = v;
          bestTo = to;
          bestDamage = damage;
        }
        if (bestDamage <= 0) break;
      }
      if (bestV == kInvalidIdx) break;
      p.move(g, bestV, bestTo);
    }
  }
}

}  // namespace

GpResult partition_graph(const gp::Graph& g, idx_t K, const PartitionConfig& cfg) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  WallTimer timer;

  // Scope the configured fault spec to this call; an empty spec leaves any
  // process-global (FGHP_FAULT_SPEC) installation untouched.
  std::optional<fault::ScopedSpec> faultScope;
  if (!cfg.faultSpec.empty()) faultScope.emplace(cfg.faultSpec);
  trace::TraceScope span("partition", "gp.partition", "k", K, "verts",
                         g.num_vertices());

  const bool strict = cfg.validateLevel == ValidateLevel::kStrict;
  if (strict) gp::validate_or_throw(g);

  // Phase-boundary check-point before any work (mirror of
  // partition_hypergraph's contract).
  cancel::check_point(cfg.cancel, "gp.partition", nullptr, 1,
                      /*deadlineThrows=*/!cfg.degradeOnDeadline);

  Rng rng(cfg.seed);

  gprb::GRecursiveResult rb = gprb::partition_graph_recursive(g, K, cfg, rng);
  if (strict) gp::validate_partition_or_throw(g, rb.partition, "recursive-bisection");
  if (K > 1 && !gp::is_balanced(g, rb.partition, cfg.epsilon)) {
    // Balance repair runs even on an expired deadline — feasibility is part
    // of the degradation contract, only quality polish is negotiable.
    kway_grebalance(g, rb.partition, cfg.epsilon, rng);
    if (strict) gp::validate_partition_or_throw(g, rb.partition, "rebalance");
  }
  const bool skipPolish =
      cfg.degradeOnDeadline &&
      cancel::poll(cfg.cancel) == cancel::Status::kDeadlineExpired;
  if (K > 2 && !skipPolish) {
    gpk::gkway_refine(g, rb.partition, cfg, rng);
    if (strict) gp::validate_partition_or_throw(g, rb.partition, "kway-refine");
  }

  static metrics::Counter& runs = metrics::counter("partition.gp.runs");
  static metrics::Counter& recovered = metrics::counter("partition.recoveries");
  runs.add();
  recovered.add(rb.numRecoveries);

  GpResult out;
  out.seconds = timer.seconds();
  out.edgeCut = gp::edge_cut(g, rb.partition);
  out.imbalance = gp::imbalance(g, rb.partition);
  out.numRecoveries = rb.numRecoveries;
  out.numDegraded = rb.numDegraded;
  out.partition = std::move(rb.partition);
  return out;
}

}  // namespace fghp::part
