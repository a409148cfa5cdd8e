// Observability stack tests: the executor's per-iteration histogram,
// bit-identity of traced and reported runs, the RunReport builder (phase
// analytics, modeled-vs-measured volume audit, JSON round-trip, rendering),
// and watchdog stall attribution to the worker's innermost active trace
// span.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "comm/volume.hpp"
#include "models/checkerboard.hpp"
#include "models/finegrain.hpp"
#include "partition/config.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "sparse/testsuite.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fghp {
namespace {

std::vector<double> random_x(idx_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform01() * 2.0 - 1.0;
  return x;
}

sparse::Csr small_matrix() { return sparse::make_matrix("sherman3", 1, 0.05); }

std::vector<long long> to_ll(const std::vector<weight_t>& v) {
  return {v.begin(), v.end()};
}

/// Restores the default observability state (tracing off, warning log
/// drained) no matter how the test exits.
struct ObservabilityReset {
  ~ObservabilityReset() {
    trace::disable();
    trace::reset();
    drain_warnings();
  }
};

// --------------------------------------------- executor instrumentation ----

TEST(ExecMetrics, IterationHistogramCountsRunAndRunMt) {
  const sparse::Csr a = small_matrix();
  const model::Decomposition d = model::checkerboard_decompose_k(a, 4);
  spmv::ExecSession session(spmv::build_plan(a, d));
  const std::vector<double> x = random_x(a.num_cols(), 3);
  std::vector<double> y;
  // The session's constructor registered the histogram; {} never applies.
  metrics::Histogram& h = metrics::histogram("spmv.iteration.us", {});
  const std::int64_t c0 = h.count();
  session.run(x, y);
  EXPECT_EQ(h.count(), c0 + 1);
  session.run_mt(x, y, 2);
  EXPECT_EQ(h.count(), c0 + 2);
  session.run_mt(x, y, 1);  // serial fallback still counts one iteration
  EXPECT_EQ(h.count(), c0 + 3);
}

TEST(BitIdentity, CountedAndReportedRunsMatchPlainAcrossThreadCounts) {
  const sparse::Csr a = small_matrix();
  const model::Decomposition d = model::checkerboard_decompose_k(a, 4);
  const spmv::SpmvPlan plan = spmv::build_plan(a, d);
  const std::vector<double> x = random_x(a.num_cols(), 9);
  const std::vector<int> threadCounts = {1, 2, 8};

  std::vector<std::vector<double>> plain;
  {
    spmv::ExecSession session(plan);
    for (int t : threadCounts) {
      std::vector<double> y;
      session.run_mt(x, y, t);
      plain.push_back(y);
    }
    std::vector<double> y;
    session.run(x, y);
    plain.push_back(y);
  }

  // Same runs with the whole observability stack on: tracing, metrics and
  // a report builder. Results must be bit-identical.
  ObservabilityReset cleanup;
  trace::enable();
  trace::reset();
  report::Builder rep("test_report", "bit-identity");
  {
    spmv::ExecSession session(plan);
    std::size_t i = 0;
    for (int t : threadCounts) {
      std::vector<double> y;
      session.run_mt(x, y, t);
      EXPECT_EQ(y, plain[i++]) << "run_mt(" << t << ") diverged under observability";
    }
    std::vector<double> y;
    session.run(x, y);
    EXPECT_EQ(y, plain.back()) << "serial run diverged under observability";
  }
  const report::RunReport r = rep.build();
  EXPECT_EQ(r.status, "ok");
  EXPECT_FALSE(r.phases.empty());
}

// ----------------------------------------------------------- RunReport ----

TEST(RunReport, EndToEndAuditMatchesCommAnalyze) {
  const sparse::Csr a = small_matrix();
  const model::Decomposition d = model::checkerboard_decompose_k(a, 4);
  const comm::CommStats cs = comm::analyze(a, d);

  ObservabilityReset cleanup;
  trace::enable();
  trace::reset();
  report::Builder rep("test_report", "exec");
  rep.info("matrix", "sherman3");
  rep.info("k", 4);
  rep.expect_volume("spmv", cs.expandWords, cs.foldWords,
                    static_cast<long long>(cs.expandMessages) + cs.foldMessages);
  rep.set_proc_comm(to_ll(cs.sendWords), to_ll(cs.recvWords));

  spmv::ExecSession session(spmv::build_plan(a, d));
  const std::vector<double> x = random_x(a.num_cols(), 5);
  std::vector<double> y;
  const int reps = 4;
  for (int r = 0; r < reps; ++r) session.run_mt(x, y, 2);

  const report::RunReport r = rep.build();
  EXPECT_EQ(r.version, report::kRunReportVersion);
  EXPECT_EQ(r.status, "ok");
  EXPECT_TRUE(r.traceEnabled);
  EXPECT_GT(r.traceEvents, 0);
  EXPECT_GE(r.wallMs, 0.0);
  ASSERT_FALSE(r.phases.empty());
  for (const report::PhaseStat& p : r.phases) {
    EXPECT_GT(p.parallelEfficiency, 0.0) << p.name;
    EXPECT_LE(p.parallelEfficiency, 1.0) << p.name;
    EXPECT_GT(p.spans, 0) << p.name;
    EXPECT_GT(p.workers, 0) << p.name;
    EXPECT_GE(p.busyMs, p.criticalPathMs) << p.name;
  }
  ASSERT_FALSE(r.workers.empty());
  for (const report::WorkerStat& w : r.workers) {
    EXPECT_GT(w.utilization, 0.0);
    EXPECT_LE(w.utilization, 1.0);
  }

  // The paper's pricing, audited: the executor's measured word counters over
  // the run must equal comm::analyze's per-iteration totals times the
  // iteration count, exactly.
  ASSERT_TRUE(r.audit.present);
  EXPECT_EQ(r.audit.metricPrefix, "spmv");
  EXPECT_EQ(r.audit.iterations, reps);
  EXPECT_EQ(r.audit.measuredExpandWords, static_cast<long long>(cs.expandWords) * reps);
  EXPECT_EQ(r.audit.measuredFoldWords, static_cast<long long>(cs.foldWords) * reps);
  EXPECT_TRUE(r.audit.matches);

  ASSERT_TRUE(r.comm.present);
  long long total = 0;
  for (const weight_t w : cs.sendWords) total += w;
  EXPECT_EQ(r.comm.totalWords, total);
  EXPECT_EQ(r.comm.sendWords.size(), cs.sendWords.size());
}

TEST(RunReport, SingleThreadPhaseWallIsTheUnionOfItsSpans) {
  // One thread is never idle while a phase runs on it, so at T=1 every
  // phase's efficiency is 1 — provided its wall time is the union of its
  // spans, not first start to last end: `initial` recurs at every RB node,
  // with coarsening and refinement in between.
  const sparse::Csr a = sparse::make_matrix("sherman3", 1, 0.1);
  ObservabilityReset cleanup;
  trace::enable();
  trace::reset();
  report::Builder rep("test_report", "partition");
  part::PartitionConfig cfg;
  cfg.numThreads = 1;
  model::run_finegrain(a, 8, cfg);
  const report::RunReport r = rep.build();
  ASSERT_FALSE(r.phases.empty());
  bool sawInitial = false;
  for (const report::PhaseStat& p : r.phases) {
    sawInitial = sawInitial || p.name == "initial";
    EXPECT_EQ(p.workers, 1) << p.name;
    EXPECT_GE(p.parallelEfficiency, 0.999) << p.name;
    EXPECT_NEAR(p.wallMs, p.busyMs, 1e-9) << p.name;
  }
  EXPECT_TRUE(sawInitial);
}

TEST(RunReport, FailurePathReportsError) {
  report::Builder rep("test_report", "fail");
  rep.set_error("boom");
  const report::RunReport r = rep.build();
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.error, "boom");
}

TEST(RunReport, JsonRoundTrip) {
  report::Builder rep("test_report", "roundtrip");
  rep.info("k", 7);
  rep.expect_volume("spmv", 11, 13, 17);
  rep.set_proc_comm({3, 5}, {5, 3});
  const report::RunReport r = rep.build();
  std::ostringstream os;
  report::write_json(r, os);

  const json::Value doc = json::parse(os.str());
  EXPECT_EQ(doc.at("run_report_version").as_int(), report::kRunReportVersion);
  EXPECT_EQ(doc.at("tool").str, "test_report");
  EXPECT_EQ(doc.at("command").str, "roundtrip");
  EXPECT_EQ(doc.at("status").str, "ok");
  EXPECT_EQ(doc.at("info").at("k").str, "7");
  const json::Value& audit = doc.at("volume_audit");
  EXPECT_TRUE(audit.at("present").boolean);
  EXPECT_EQ(audit.at("modeled_expand_words").as_int(), 11);
  // No executor ran since the builder was created: 0 iterations, and the
  // audit holds trivially (0 == modeled * 0).
  EXPECT_EQ(audit.at("iterations").as_int(), 0);
  EXPECT_TRUE(audit.at("matches").boolean);
  const json::Value& comm = doc.at("proc_comm");
  EXPECT_EQ(comm.at("total_words").as_int(), 8);
  EXPECT_EQ(comm.at("max_proc_words").as_int(), 8);
}

TEST(RunReport, WriteFileAndRenderFile) {
  report::Builder rep("test_report", "render");
  const std::string path = ::testing::TempDir() + "fghp_test_report.json";
  json::write_file(path, [&rep](std::ostream& o) { report::write_json(rep.build(), o); });
  std::ostringstream out;
  report::render_file(path, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("RunReport v2: test_report render"), std::string::npos) << text;
  EXPECT_NE(text.find("volume audit: not armed"), std::string::npos) << text;

  // A version-1 file (which also carried a "perf" section) still renders:
  // the renderer reads nothing that version 2 dropped.
  std::ostringstream v2;
  report::write_json(rep.build(), v2);
  std::string v1 = v2.str();
  const std::string version = "\"run_report_version\":2,";
  ASSERT_NE(v1.find(version), std::string::npos) << v1;
  v1.replace(v1.find(version), version.size(),
             "\"run_report_version\":1,\"perf\":{\"compiled_in\":false,"
             "\"enabled\":false,\"available\":false,\"cycles\":0},");
  {
    std::ofstream f(path);
    f << v1;
  }
  std::ostringstream outV1;
  report::render_file(path, outV1);
  EXPECT_NE(outV1.str().find("RunReport v1: test_report render"), std::string::npos)
      << outV1.str();
  std::remove(path.c_str());
}

TEST(RunReport, RenderFileRejectsMalformedJson) {
  const std::string path = ::testing::TempDir() + "fghp_test_report_bad.json";
  {
    std::ofstream f(path);
    f << "{ not json";
  }
  std::ostringstream out;
  EXPECT_THROW(report::render_file(path, out), FormatError);
  EXPECT_THROW(report::render_file(path + ".missing", out), IoError);
  std::remove(path.c_str());
}

// ------------------------------------------------ watchdog attribution ----

TEST(WatchdogAttribution, SimulatedStallNamesInnermostActiveSpan) {
  ThreadPool pool(2);
  trace::ActivityScope act("report.test.phase");
  fault::ScopedSpec spec("watchdog.stall:1");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(pool.watchdog_scan(), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("in span 'report.test.phase'"), std::string::npos) << err;
}

TEST(WatchdogAttribution, RealStallNamesWorkerSpan) {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  ::testing::internal::CaptureStderr();
  TaskGroup group(pool);
  group.run([&] {
    trace::ActivityScope act("report.stuck.phase");
    started.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (!started.load()) std::this_thread::yield();
  const std::int64_t before = metrics::counter("watchdog.stalls").value();
  pool.set_watchdog_ms(5);
  bool reported = false;
  for (int i = 0; i < 400 && !reported; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pool.watchdog_scan();
    reported = metrics::counter("watchdog.stalls").value() > before;
  }
  release.store(true);
  group.wait();
  // The stall counter is bumped just before the stderr write; give the
  // reporting thread a beat to finish the write before uncapturing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(reported) << "stalled task never reported";
  EXPECT_NE(err.find("in span 'report.stuck.phase'"), std::string::npos) << err;
}

}  // namespace
}  // namespace fghp
