// Post-run analysis: turns the in-memory observability state — the tracer's
// span buffers (trace::snapshot_events) and the metrics registry
// (metrics::Registry::snapshot) — into one versioned, structured RunReport:
//
//  * per-phase wall time, summed busy time, fork-join critical path and
//    parallel efficiency (phase = every distinct span name; see DESIGN.md
//    §16 for the formulas),
//  * per-worker utilization and trace-drop accounting,
//  * hardware-counter totals (util/perf_counters) with availability flags,
//  * a modeled-vs-measured communication-volume audit: the paper's λ−1
//    cutsize prices the volume exactly, so the executor's measured
//    expand/fold word counters must equal comm::analyze's per-iteration
//    totals times the iteration count — the report flags any divergence,
//  * the per-processor send/recv word matrix with load-imbalance stats,
//  * and a full metrics dump (counters/histograms as deltas over the run,
//    gauges as current values).
//
// The Builder is created at the start of a run (it baselines the metrics
// registry and the clocks), fed the modeled quantities the caller knows
// (comm::analyze totals, matrix info), and asked to build() at the end —
// including on the failure path, honoring the CLIs' written-even-on-failure
// contract. `fghp_tool report FILE` renders a saved report back into tables
// (render_file). The JSON document is the intended payload of the future
// fghp_serve /stats endpoint (ROADMAP item 1).
//
// This lives in util (base layer): it knows nothing of matrices or plans,
// only plain numbers the caller computed with comm::analyze etc.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.hpp"

namespace fghp::report {

inline constexpr int kRunReportVersion = 1;

/// Aggregate over every span with one name. Efficiency = busy / (workers *
/// wall), which is 1.0 when every participating thread was busy for the
/// phase's whole wall-clock extent — by construction always in (0, 1].
struct PhaseStat {
  std::string name;
  long long spans = 0;             ///< span events aggregated
  int workers = 0;                 ///< distinct recording threads
  double wallMs = 0.0;             ///< max end - min start over all spans
  double busyMs = 0.0;             ///< per-thread interval-union, summed
  double criticalPathMs = 0.0;     ///< busiest single thread's union
  double parallelEfficiency = 1.0;
};

struct WorkerStat {
  std::uint32_t tid = 0;
  double busyMs = 0.0;       ///< union of all spans recorded by this thread
  double utilization = 0.0;  ///< busyMs / whole-run span extent, in (0, 1]
};

struct PerfStat {
  bool compiledIn = false;
  bool enabled = false;
  bool available = false;
  // Summed over every "perf.*" counter delta of the run (the per-scope and
  // per-workload breakdown stays in the metrics section).
  long long cycles = 0;
  long long instructions = 0;
  long long llcMisses = 0;
  long long branchMisses = 0;
};

/// Modeled-vs-measured volume. Measured values are metric deltas of
/// "<metricPrefix>.{iterations,expand.words,fold.words,messages}" over the
/// run; modeled values are per-iteration totals from comm::analyze (or the
/// plan — the tests pin them equal). matches == the exact equalities
/// measured == modeled * iterations, which hold on every clean path and
/// break when an executor under-delivered (e.g. a cancelled iteration).
struct VolumeAudit {
  bool present = false;
  std::string metricPrefix;
  long long iterations = 0;
  long long modeledExpandWords = 0;
  long long modeledFoldWords = 0;
  long long modeledMessages = 0;
  long long measuredExpandWords = 0;
  long long measuredFoldWords = 0;
  long long measuredMessages = 0;
  bool matches = true;
};

/// Per-processor send/recv words of one modeled iteration, with the load-
/// imbalance statistics of Table 2's "max" column.
struct ProcCommStat {
  bool present = false;
  std::vector<long long> sendWords;
  std::vector<long long> recvWords;
  long long totalWords = 0;
  long long maxProcWords = 0;       ///< max_p send[p] + recv[p]
  double avgProcWords = 0.0;
  double imbalancePercent = 0.0;    ///< 100 * (max / avg - 1)
};

struct RunReport {
  int version = kRunReportVersion;
  std::string tool;
  std::string command;
  std::string status = "ok";  ///< "ok" | "error"
  std::string error;          ///< what() of the failure, when status=="error"
  double wallMs = 0.0;
  double cpuMs = 0.0;  ///< process user+system CPU over the run
  std::map<std::string, std::string> info;  ///< free-form caller context

  bool traceEnabled = false;
  long long traceEvents = 0;
  long long traceDropped = 0;

  std::vector<PhaseStat> phases;    ///< ordered by first span start
  std::vector<WorkerStat> workers;  ///< ordered by tid
  PerfStat perf;
  VolumeAudit audit;
  ProcCommStat comm;

  /// Counters and histograms as deltas over the run, gauges as-is.
  metrics::Snapshot metricsDelta;
};

/// Accumulates a run's context, then assembles the report. Construct before
/// the work starts — the constructor baselines the metrics registry and the
/// wall/CPU clocks, so the report describes this run, not the process.
class Builder {
 public:
  Builder(std::string tool, std::string command);

  /// Free-form context (matrix name, model, K, ...).
  void info(const std::string& key, std::string value);
  void info(const std::string& key, long long value);

  /// Marks the run failed; build() then reports status "error".
  void set_error(std::string message);

  /// Arms the volume audit: the caller's modeled per-iteration totals
  /// (comm::analyze / plan) against the executor's metric deltas under
  /// `metricPrefix` ("spmv", "spgemm").
  void expect_volume(std::string metricPrefix, long long expandWordsPerIter,
                     long long foldWordsPerIter, long long messagesPerIter);

  /// Per-processor send/recv words of one modeled iteration.
  void set_proc_comm(std::vector<long long> sendWords,
                     std::vector<long long> recvWords);

  /// Snapshots trace + metrics and computes every derived statistic. Call at
  /// a quiescent point (same contract as the trace exporters). Idempotent —
  /// the failure path may build after a partial run.
  RunReport build() const;

 private:
  std::string tool_, command_, error_;
  std::map<std::string, std::string> info_;
  std::uint64_t startNs_ = 0;
  double startCpuMs_ = 0.0;
  metrics::Snapshot baseline_;
  bool auditArmed_ = false;
  std::string auditPrefix_;
  long long expectExpand_ = 0, expectFold_ = 0, expectMessages_ = 0;
  ProcCommStat comm_;
};

/// Serializes the report as JSON (schema: DESIGN.md §16).
void write_json(const RunReport& r, std::ostream& out);

/// Renders a saved RunReport JSON file as human-readable tables (the
/// `fghp_tool report` subcommand). Throws IoError / FormatError.
void render_file(const std::string& path, std::ostream& out);

}  // namespace fghp::report
