// Cooperative cancellation, deadlines, the graceful-degradation ladder, and
// the thread-pool watchdog / shutdown hardening (DESIGN.md §13).
//
// Determinism strategy: wall-clock deadlines are only asserted at their
// endpoints — an inactive or generous deadline must change nothing, and an
// already-expired deadline (timeout 0) must demote every recursive-bisection
// node to the greedy split. Anything in between is asserted as a range plus
// validity, never as an exact value. Exact mid-run cancellation is exercised
// through the deterministic fault sites instead of the clock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "graph/gmetrics.hpp"
#include "graph/gvalidate.hpp"
#include "hypergraph/metrics.hpp"
#include "hypergraph/validate.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "partition/gp/gpartitioner.hpp"
#include "partition/hg/partitioner.hpp"
#include "sparse/generators.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fghp {
namespace {

// ------------------------------------------------------ token semantics ----

TEST(Deadline, DefaultHasNone) {
  const cancel::Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 1'000'000L);  // "huge" sentinel, comparisons read naturally
}

TEST(Deadline, ZeroIsAlreadyExpired) {
  const cancel::Deadline d = cancel::Deadline::after_ms(0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0L);
}

TEST(Deadline, NegativeMeansNoDeadline) {
  const cancel::Deadline d = cancel::Deadline::after_ms(-1);
  EXPECT_FALSE(d.has_deadline());
}

TEST(CancelToken, DefaultIsInactive) {
  const cancel::CancelToken t;
  EXPECT_FALSE(t.active());
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.has_deadline());
  EXPECT_EQ(cancel::poll(t), cancel::Status::kRun);
}

TEST(CancelToken, ManualCancelObservedThroughCopies) {
  const cancel::CancelToken t = cancel::CancelToken::manual();
  const cancel::CancelToken copy = t;  // copies share the state
  EXPECT_EQ(cancel::poll(copy), cancel::Status::kRun);
  t.cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_EQ(cancel::poll(copy), cancel::Status::kCancelled);
}

TEST(CancelToken, DeadlineTokenExpires) {
  const cancel::CancelToken t = cancel::CancelToken::with_deadline_ms(0);
  EXPECT_TRUE(t.active());
  EXPECT_TRUE(t.has_deadline());
  EXPECT_EQ(cancel::poll(t), cancel::Status::kDeadlineExpired);
  EXPECT_EQ(t.remaining_ms(), 0L);
}

TEST(CancelToken, NegativeTimeoutYieldsInactiveToken) {
  // CLI plumbing passes --timeout-ms through unconditionally; -1 = no flag.
  const cancel::CancelToken t = cancel::CancelToken::with_deadline_ms(-1);
  EXPECT_FALSE(t.active());
}

TEST(CancelToken, CancelBeatsExpiredDeadline) {
  const cancel::CancelToken t = cancel::CancelToken::with_deadline_ms(0);
  t.cancel();
  EXPECT_EQ(cancel::poll(t), cancel::Status::kCancelled);
}

// -------------------------------------------------- check_point contract ----

TEST(CheckPoint, InactiveTokenRuns) {
  EXPECT_EQ(cancel::check_point({}, "phase"), cancel::Status::kRun);
}

TEST(CheckPoint, CancelThrowsTypedErrorWithContext) {
  const cancel::CancelToken t = cancel::CancelToken::manual();
  t.cancel();
  const auto before = metrics::counter("cancel.cancelled").value();
  try {
    cancel::check_point(t, "rb.node", nullptr, 5);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_EQ(e.context().phase, "rb.node");
    EXPECT_EQ(e.context().part, 5);
  }
  EXPECT_GT(metrics::counter("cancel.cancelled").value(), before);
}

TEST(CheckPoint, ExpiredDeadlineThrowsByDefault) {
  const cancel::CancelToken t = cancel::CancelToken::with_deadline_ms(0);
  const auto before = metrics::counter("cancel.deadline_expired").value();
  try {
    cancel::check_point(t, "hg.partition");
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadline);
    EXPECT_EQ(e.context().phase, "hg.partition");
  }
  EXPECT_GT(metrics::counter("cancel.deadline_expired").value(), before);
}

TEST(CheckPoint, DegradingCallersGetAStatusInsteadOfAThrow) {
  const cancel::CancelToken t = cancel::CancelToken::with_deadline_ms(0);
  EXPECT_EQ(cancel::check_point(t, "rb.node", nullptr, 1, /*deadlineThrows=*/false),
            cancel::Status::kDeadlineExpired);
}

TEST(CheckPoint, FaultSiteSimulatesCancellationWithoutAToken) {
  fault::ScopedSpec spec("cancel.rb.node:2");
  // Ordinal 1 does not match the armed site: the check-point runs.
  EXPECT_EQ(cancel::check_point({}, "rb.node", "cancel.rb.node", 1),
            cancel::Status::kRun);
  try {
    cancel::check_point({}, "rb.node", "cancel.rb.node", 2);
    FAIL() << "expected injected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.context().part, 2);
  }
}

// ----------------------------------------------- the degradation ladder ----

part::PartitionConfig ladder_config(long timeoutMs, idx_t threads = 1) {
  part::PartitionConfig cfg;
  cfg.seed = 42;
  cfg.numThreads = threads;
  cfg.minParallelVertices = 32;
  cfg.validateLevel = part::ValidateLevel::kStrict;  // validate between phases
  cfg.cancel = cancel::CancelToken::with_deadline_ms(timeoutMs);
  return cfg;
}

TEST(Degradation, ExpiredDeadlineStillReturnsValidPartition) {
  const sparse::Csr a = sparse::random_square(150, 4, 17);
  const model::FineGrainModel m = model::build_finegrain(a);
  constexpr idx_t K = 8;
  // Timeout 0: the budget is gone before the first node, so every one of the
  // K-1 bisection nodes demotes straight to the deterministic greedy split.
  const part::HgResult r = part::partition_hypergraph(m.h, K, ladder_config(0));
  drain_warnings();
  EXPECT_EQ(r.numDegraded, K - 1);
  EXPECT_TRUE(hg::validate_partition(m.h, r.partition).empty());
  EXPECT_TRUE(hg::is_balanced(m.h, r.partition, 0.1));
}

TEST(Degradation, FullyDegradedRunIdenticalAcrossThreadCounts) {
  const sparse::Csr a = sparse::random_square(150, 4, 17);
  const model::FineGrainModel m = model::build_finegrain(a);
  const part::HgResult r1 = part::partition_hypergraph(m.h, 8, ladder_config(0, 1));
  const part::HgResult r2 = part::partition_hypergraph(m.h, 8, ladder_config(0, 2));
  const part::HgResult r8 = part::partition_hypergraph(m.h, 8, ladder_config(0, 8));
  drain_warnings();
  EXPECT_EQ(r1.partition.assignment(), r2.partition.assignment());
  EXPECT_EQ(r1.partition.assignment(), r8.partition.assignment());
  EXPECT_EQ(r1.numDegraded, r8.numDegraded);
}

TEST(Degradation, GraphEngineLadderMirrorsHypergraph) {
  const sparse::Csr a = sparse::random_square(150, 4, 17);
  const gp::Graph g = model::build_standard_graph(a);
  constexpr idx_t K = 8;
  const part::GpResult r = part::partition_graph(g, K, ladder_config(0));
  drain_warnings();
  EXPECT_EQ(r.numDegraded, K - 1);
  EXPECT_TRUE(gp::validate_partition(g, r.partition).empty());
  EXPECT_TRUE(gp::is_balanced(g, r.partition, 0.1));
}

TEST(Degradation, DegradedCountMonotoneAcrossBudgetEndpoints) {
  const sparse::Csr a = sparse::random_square(150, 4, 17);
  const model::FineGrainModel m = model::build_finegrain(a);
  constexpr idx_t K = 8;
  const part::HgResult none = part::partition_hypergraph(m.h, K, ladder_config(-1));
  const part::HgResult ample =
      part::partition_hypergraph(m.h, K, ladder_config(3'600'000));
  const part::HgResult tight = part::partition_hypergraph(m.h, K, ladder_config(1));
  const part::HgResult gone = part::partition_hypergraph(m.h, K, ladder_config(0));
  drain_warnings();
  EXPECT_EQ(none.numDegraded, 0);
  EXPECT_EQ(ample.numDegraded, 0);
  EXPECT_EQ(gone.numDegraded, K - 1);
  // A 1 ms budget lands somewhere on the ladder depending on the machine;
  // only the bounds and the validity of the result are deterministic.
  EXPECT_GE(tight.numDegraded, 0);
  EXPECT_LE(tight.numDegraded, K - 1);
  EXPECT_TRUE(hg::validate_partition(m.h, tight.partition).empty());
  // The generous deadline must not change a single decision (bit-identity
  // with the un-deadlined run).
  EXPECT_EQ(ample.partition.assignment(), none.partition.assignment());
}

TEST(Degradation, NoDegradeTurnsExpiryIntoTypedError) {
  const sparse::Csr a = sparse::random_square(100, 4, 23);
  const model::FineGrainModel m = model::build_finegrain(a);
  part::PartitionConfig cfg = ladder_config(0);
  cfg.degradeOnDeadline = false;
  try {
    part::partition_hypergraph(m.h, 8, cfg);
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadline);
  }
  drain_warnings();
}

TEST(Degradation, ManualCancelAlwaysThrowsEvenWithLadderOn) {
  const sparse::Csr a = sparse::random_square(100, 4, 23);
  const model::FineGrainModel m = model::build_finegrain(a);
  part::PartitionConfig cfg = ladder_config(-1);
  cfg.cancel = cancel::CancelToken::manual();
  cfg.cancel.cancel();
  EXPECT_THROW(part::partition_hypergraph(m.h, 8, cfg), CancelledError);
  drain_warnings();
}

TEST(Degradation, CountPropagatesThroughTheModelRunners) {
  const sparse::Csr a = sparse::random_square(120, 4, 31);
  part::PartitionConfig cfg;
  cfg.seed = 7;
  cfg.numThreads = 1;
  cfg.cancel = cancel::CancelToken::with_deadline_ms(0);
  const model::ModelRun run = model::run_finegrain(a, 4, cfg);
  drain_warnings();
  EXPECT_EQ(run.numDegraded, 3);  // K-1 nodes, surfaced on the facade
}

// ------------------------------------------------------- the SpMV layer ----

struct SessionFixture {
  sparse::Csr a;
  spmv::SpmvPlan plan;
  std::vector<double> x;

  SessionFixture() {
    a = sparse::random_square(60, 4, 5);
    part::PartitionConfig cfg;
    cfg.seed = 5;
    const model::Decomposition d = model::run_finegrain(a, 4, cfg).decomp;
    plan = spmv::build_plan(a, d);
    Rng rng(5);
    x.resize(static_cast<std::size_t>(a.num_cols()));
    for (auto& v : x) v = rng.uniform01();
  }
};

TEST(ExecCancel, BuildAndCompileCheckTheToken) {
  const SessionFixture f;
  part::PartitionConfig cfg;
  cfg.seed = 5;
  const model::Decomposition d = model::run_finegrain(f.a, 4, cfg).decomp;
  cancel::CancelToken cancelled = cancel::CancelToken::manual();
  cancelled.cancel();
  EXPECT_THROW(spmv::build_plan(f.a, d, cancelled), CancelledError);
  spmv::CompileOptions copts;
  copts.cancel = cancel::CancelToken::with_deadline_ms(0);
  EXPECT_THROW(exec::compile(f.plan, copts), DeadlineExceededError);
}

TEST(ExecCancel, CancelledTokenStopsTheNextIteration) {
  const SessionFixture f;
  spmv::ExecSession session(f.plan);
  const cancel::CancelToken token = cancel::CancelToken::manual();
  session.set_cancel(token);
  std::vector<double> y;
  session.run(f.x, y);  // clean iteration first
  EXPECT_EQ(session.iterations_started(), 1);
  token.cancel();
  try {
    session.run(f.x, y);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.context().phase, "exec.iter");
  }
  EXPECT_THROW(session.run_mt(f.x, y, 2), CancelledError);
}

TEST(ExecCancel, ExpiredDeadlineIsTypedOnBothPaths) {
  const SessionFixture f;
  spmv::ExecSession session(f.plan);
  session.set_cancel(cancel::CancelToken::with_deadline_ms(0));
  std::vector<double> y;
  EXPECT_THROW(session.run(f.x, y), DeadlineExceededError);
  EXPECT_THROW(session.run_mt(f.x, y, 2), DeadlineExceededError);
}

TEST(ExecCancel, SessionStaysUsableAfterACancelledIteration) {
  const SessionFixture f;
  spmv::ExecSession session(f.plan);
  std::vector<double> y;
  {
    fault::ScopedSpec spec("cancel.exec.iter:1");
    EXPECT_THROW(session.run(f.x, y), CancelledError);
  }
  session.run(f.x, y);  // iteration 2: site disarmed, scratch fully re-assigned
  const auto yRef = spmv::multiply(f.a, f.x);
  ASSERT_EQ(y.size(), yRef.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], yRef[i], 1e-10);
}

TEST(ExecCancel, InjectedIterationOrdinalIsExact) {
  const SessionFixture f;
  spmv::ExecSession session(f.plan);
  std::vector<double> y;
  fault::ScopedSpec spec("cancel.exec.iter:3");
  session.run(f.x, y);
  session.run_mt(f.x, y, 2);  // run and run_mt share the iteration counter
  EXPECT_THROW(session.run(f.x, y), CancelledError);
}

// ------------------------------------------ watchdog + shutdown hardening ----

TEST(Watchdog, SimulatedStallReportsOnce) {
  ThreadPool pool(2);
  const auto before = metrics::counter("watchdog.stalls").value();
  fault::ScopedSpec spec("watchdog.stall:1");
  EXPECT_EQ(pool.watchdog_scan(), 1);  // scan 1 matches the armed ordinal
  EXPECT_EQ(pool.watchdog_scan(), 0);  // scan 2 does not
  EXPECT_EQ(metrics::counter("watchdog.stalls").value(), before + 1);
}

TEST(Watchdog, RealStallDetectedAndReportedOncePerTask) {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  TaskGroup group(pool);
  group.run([&] {
    started.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (!started.load()) std::this_thread::yield();
  const auto before = metrics::counter("watchdog.stalls").value();
  pool.set_watchdog_ms(5);  // arms the monitor thread as well
  // The task is now pinned well past the threshold; poll until a scan (ours
  // or the monitor's) reports it. Bounded: fail after ~2 s instead of hanging.
  bool reported = false;
  for (int i = 0; i < 400 && !reported; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pool.watchdog_scan();
    reported = metrics::counter("watchdog.stalls").value() > before;
  }
  EXPECT_TRUE(reported) << "stalled task never reported";
  // The same stuck task must not be re-reported by later scans.
  const auto afterFirst = metrics::counter("watchdog.stalls").value();
  pool.watchdog_scan();
  EXPECT_EQ(metrics::counter("watchdog.stalls").value(), afterFirst);
  release.store(true);
  group.wait();
}

TEST(ThreadPoolShutdown, EnqueueAfterShutdownIsTypedAndDoesNotHang) {
  ThreadPool pool(2);
  pool.shutdown();
  TaskGroup group(pool);
  EXPECT_THROW(group.run([] {}), InvariantError);
  group.wait();  // the failed fork was rolled back; nothing pending
  EXPECT_THROW(pool.grow_to(4), InvariantError);
  pool.shutdown();  // idempotent
}

TEST(ThreadPoolShutdown, WatchdogJoinsCleanly) {
  // Construction + armed watchdog + immediate destruction must not race
  // (check.sh runs this file under TSan).
  for (int i = 0; i < 3; ++i) {
    ThreadPool pool(2);
    pool.set_watchdog_ms(1);
    std::atomic<int> ran{0};
    parallel_for(pool, 16, [&](long) { ran += 1; });
    EXPECT_EQ(ran.load(), 16);
  }
}

}  // namespace
}  // namespace fghp
