#include "partition/hg/partitioner.hpp"

#include <optional>

#include "hypergraph/validate.hpp"
#include "partition/hg/kway_refine.hpp"
#include "partition/hg/recursive.hpp"
#include "partition/hg/vcycle.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fghp::part {

namespace {

/// True when the run's deadline has expired and the config asks for
/// degradation: quality-only phases should be skipped, not attempted.
bool budget_gone(const PartitionConfig& cfg) {
  return cfg.degradeOnDeadline &&
         cancel::poll(cfg.cancel) == cancel::Status::kDeadlineExpired;
}

/// V-cycles after the K-way polish; each stops early when it yields no
/// improvement.
constexpr idx_t kVcycles = 2;

/// The full pipeline: RB, balance repair, K-way polish, V-cycles.
hgrb::RecursiveResult run_pipeline(const hg::Hypergraph& h, idx_t K, const PartitionConfig& cfg,
                                   Rng& rng, const std::vector<idx_t>& fixedPart) {
  const bool strict = cfg.validateLevel == ValidateLevel::kStrict;
  hgrb::RecursiveResult rb = hgrb::partition_recursive(h, K, cfg, rng, fixedPart);
  if (strict) hg::validate_partition_or_throw(h, rb.partition, "recursive-bisection");
  if (K > 1 && !hg::is_balanced(h, rb.partition, cfg.epsilon)) {
    // Integer rounding of per-level tolerances can compound on small
    // sub-problems; repair before (or instead of) the quality polish. This
    // runs even on an expired deadline: balance feasibility is part of the
    // degradation contract, only quality polish is negotiable.
    hgk::kway_rebalance(h, rb.partition, cfg.epsilon, rng, fixedPart);
    if (strict) hg::validate_partition_or_throw(h, rb.partition, "rebalance");
  }
  if (K > 2 && !budget_gone(cfg)) {
    hgk::kway_refine(h, rb.partition, cfg, rng, fixedPart);
    if (strict) hg::validate_partition_or_throw(h, rb.partition, "kway-refine");
  }
  // V-cycles move whole clusters, which could smuggle a fixed vertex across
  // parts; run them only on fully free instances.
  if (K > 1 && fixedPart.empty() && !budget_gone(cfg)) {
    for (idx_t cycle = 0; cycle < kVcycles; ++cycle) {
      if (cancel::check_point(cfg.cancel, "vcycle", nullptr, cycle + 1,
                              /*deadlineThrows=*/!cfg.degradeOnDeadline) !=
          cancel::Status::kRun)
        break;
      if (hgv::vcycle_refine(h, rb.partition, cfg, rng) == 0) break;
    }
    if (strict) hg::validate_partition_or_throw(h, rb.partition, "vcycle");
  }
  return rb;
}

}  // namespace

HgResult partition_hypergraph(const hg::Hypergraph& h, idx_t K, const PartitionConfig& cfg,
                              const std::vector<idx_t>& fixedPart) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  WallTimer timer;

  // Scope the configured fault spec to this call; an empty spec leaves any
  // process-global (FGHP_FAULT_SPEC) installation untouched.
  std::optional<fault::ScopedSpec> faultScope;
  if (!cfg.faultSpec.empty()) faultScope.emplace(cfg.faultSpec);
  trace::TraceScope span("partition", "hg.partition", "k", K, "verts",
                         h.num_vertices());

  if (cfg.validateLevel == ValidateLevel::kStrict) hg::validate_or_throw(h);

  // Phase-boundary check-point before any work: a run that arrives already
  // cancelled (or expired, with degradation off) fails immediately.
  cancel::check_point(cfg.cancel, "hg.partition", nullptr, 1,
                      /*deadlineThrows=*/!cfg.degradeOnDeadline);

  Rng rng(cfg.seed);
  hgrb::RecursiveResult rb = run_pipeline(h, K, cfg, rng, fixedPart);

  static metrics::Counter& runs = metrics::counter("partition.hg.runs");
  static metrics::Counter& recovered = metrics::counter("partition.recoveries");
  runs.add();
  recovered.add(rb.numRecoveries);

  HgResult out;
  out.seconds = timer.seconds();
  out.cutsize = hg::cutsize(h, rb.partition, hg::CutMetric::kConnectivity);
  out.numCutNets = hg::num_cut_nets(h, rb.partition);
  out.imbalance = hg::imbalance(h, rb.partition);
  out.numRecoveries = rb.numRecoveries;
  out.numDegraded = rb.numDegraded;
  out.partition = std::move(rb.partition);
  return out;
}

}  // namespace fghp::part
