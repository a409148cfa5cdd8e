// Compiled execution image tests: plan lowering invariants, session reuse
// (bit-identity with the one-shot executors at several thread counts, with
// and without injected faults), the zero-allocation guarantee of the serial
// and threaded iteration paths, concurrent and nested threaded callers, and
// the traffic-accounting property across the whole test suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>

#include "alloc_counter.hpp"
#include "comm/volume.hpp"
#include "models/checkerboard.hpp"
#include "models/finegrain.hpp"
#include "spmv/compiled.hpp"
#include "spmv/executor.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "sparse/generators.hpp"
#include "sparse/reorder.hpp"
#include "sparse/testsuite.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fghp::spmv {
namespace {

std::vector<double> random_x(idx_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform01() * 2.0 - 1.0;
  return x;
}

model::Decomposition random_decomposition(const sparse::Csr& a, idx_t K,
                                          std::uint64_t seed) {
  Rng rng(seed);
  model::Decomposition d;
  d.numProcs = K;
  d.nnzOwner.resize(static_cast<std::size_t>(a.nnz()));
  for (auto& p : d.nnzOwner) p = rng.uniform(0, K - 1);
  d.xOwner.resize(static_cast<std::size_t>(a.num_cols()));
  d.yOwner.resize(static_cast<std::size_t>(a.num_rows()));
  for (auto& p : d.xOwner) p = rng.uniform(0, K - 1);
  for (auto& p : d.yOwner) p = rng.uniform(0, K - 1);
  return d;
}

void expect_bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "index " << i;
}

// ------------------------------------------------------------- lowering ----

TEST(CompilePlan, ImageCoversPlanExactly) {
  const sparse::Csr a = sparse::random_square(120, 6, 5);
  for (idx_t K : {1, 3, 8}) {
  for (bool reorder : {true, false}) {
    const auto d = random_decomposition(a, K, 17 + static_cast<std::uint64_t>(K));
    const SpmvPlan plan = build_plan(a, d);
    CompileOptions copts;
    copts.cacheReorder = reorder;
    const CompiledPlan c = exec::compile(plan, copts);
    EXPECT_EQ(c.cacheReordered, reorder);
    if (!reorder) {
      EXPECT_EQ(c.reorderedProcs, 0);
    }

    // Send-buffer offsets cover exactly the plan's traffic.
    EXPECT_EQ(c.total_words(), plan.total_words());
    EXPECT_EQ(c.total_messages(), plan.total_messages());
    EXPECT_EQ(static_cast<idx_t>(c.in[0].sendId.size()), c.in[0].sendOff.back());
    EXPECT_EQ(static_cast<idx_t>(c.out.sendSlot.size()), c.out.sendOff.back());
    // Every send word is received exactly once.
    EXPECT_EQ(c.in[0].recvOff.back(), c.in[0].sendOff.back());
    EXPECT_EQ(c.out.recvOff.back(), c.out.sendOff.back());
    // The task CSR partitions the matrix's nonzeros.
    EXPECT_EQ(c.num_tasks(), a.nnz());
    EXPECT_EQ(c.groupPtr.size(), static_cast<std::size_t>(c.out.off.back()) + 1);
    // Local rhs (x) slots stay inside their processor's range.
    for (idx_t p = 0; p < K; ++p) {
      for (idx_t e = c.groupPtr[static_cast<std::size_t>(c.out.off[static_cast<std::size_t>(p)])];
           e < c.groupPtr[static_cast<std::size_t>(c.out.off[static_cast<std::size_t>(p) + 1])];
           ++e) {
        EXPECT_GE(c.rhsSlot[static_cast<std::size_t>(e)], c.in[0].off[static_cast<std::size_t>(p)]);
        EXPECT_LT(c.rhsSlot[static_cast<std::size_t>(e)],
                  c.in[0].off[static_cast<std::size_t>(p) + 1]);
      }
    }
  }
  }
}

TEST(CompilePlan, RejectsFoldOfUncomputedRow) {
  const sparse::Csr a = sparse::random_square(40, 4, 6);
  const auto d = random_decomposition(a, 3, 7);
  SpmvPlan plan = build_plan(a, d);
  // Corrupt: make some processor's fold send reference a row it never owns a
  // nonzero of. Find a proc with a ySend and splice in an impossible row.
  for (std::size_t p = 0; p < plan.tasks.size(); ++p) {
    auto& ySends = plan.outComm[p].sends;
    const auto& rows = plan.tasks[p].outId;
    if (ySends.empty() || rows.empty()) continue;
    idx_t bogus = kInvalidIdx;
    std::vector<bool> has(static_cast<std::size_t>(a.num_rows()), false);
    for (idx_t i : rows) has[static_cast<std::size_t>(i)] = true;
    for (idx_t i = 0; i < a.num_rows(); ++i)
      if (!has[static_cast<std::size_t>(i)]) { bogus = i; break; }
    if (bogus == kInvalidIdx) continue;
    ySends.front().ids.push_back(bogus);
    EXPECT_THROW(exec::compile(plan), InvariantError);
    return;
  }
  GTEST_SKIP() << "no processor suitable for corruption";
}

// -------------------------------------------------------- session reuse ----

TEST(ExecSessionReuse, FiveIterationsBitIdenticalToOneShots) {
  const sparse::Csr a = sparse::random_square(150, 6, 41);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const SpmvPlan plan = build_plan(a, run.decomp);

  ExecSession session(plan);
  std::vector<double> y;
  for (int iter = 0; iter < 5; ++iter) {
    const auto x = random_x(a.num_cols(), 100 + static_cast<std::uint64_t>(iter));
    ExecStats sessionStats, oneShotStats;

    session.run(x, y, &sessionStats);
    expect_bit_identical(y, execute(plan, x, &oneShotStats));
    EXPECT_EQ(sessionStats.wordsSent, oneShotStats.wordsSent);
    EXPECT_EQ(sessionStats.messagesSent, oneShotStats.messagesSent);

    for (idx_t threads : {1, 2, 8}) {
      session.run_mt(x, y, threads, &sessionStats);
      expect_bit_identical(y, execute_mt(plan, x, threads, &oneShotStats));
      EXPECT_EQ(sessionStats.wordsSent, oneShotStats.wordsSent);
      EXPECT_EQ(sessionStats.messagesSent, oneShotStats.messagesSent);
    }
  }
}

TEST(ExecSessionReuse, BitIdenticalUnderRetriedFault) {
  const sparse::Csr a = sparse::random_square(130, 5, 42);
  const auto d = random_decomposition(a, 6, 43);
  const SpmvPlan plan = build_plan(a, d);
  const auto x = random_x(a.num_cols(), 44);
  const auto clean = execute(plan, x);

  // Ordinal 2 = processor 1: its expand task fails once, the retry succeeds.
  fault::ScopedSpec spec("exec.expand:2");
  ExecSession session(plan);
  std::vector<double> y;
  for (idx_t threads : {1, 2, 8}) {
    for (int iter = 0; iter < 5; ++iter) {
      ExecStats stats;
      session.run_mt(x, y, threads, &stats);
      expect_bit_identical(y, clean);
      EXPECT_EQ(stats.taskRetries, 1);
      EXPECT_FALSE(stats.serialFallback);
    }
  }
  drain_warnings();
}

TEST(ExecSessionReuse, SerialFallbackBitIdentical) {
  const sparse::Csr a = sparse::random_square(130, 5, 45);
  const auto d = random_decomposition(a, 6, 46);
  const SpmvPlan plan = build_plan(a, d);
  const auto x = random_x(a.num_cols(), 47);
  const auto clean = execute(plan, x);

  // Processor 0's fold task fails both attempts: the run degrades to the
  // serial path, which must still produce the clean answer and totals.
  fault::ScopedSpec spec("exec.fold:1,exec.retry:1");
  ExecSession session(plan);
  std::vector<double> y;
  for (idx_t threads : {1, 2, 8}) {
    ExecStats stats;
    session.run_mt(x, y, threads, &stats);
    expect_bit_identical(y, clean);
    EXPECT_TRUE(stats.serialFallback);
    EXPECT_EQ(stats.taskRetries, 1);
    EXPECT_EQ(stats.wordsSent, plan.total_words());
    EXPECT_EQ(stats.messagesSent, plan.total_messages());

    // A clean run right after the fallback reuses the same scratch.
    {
      fault::ScopedSpec disarm("");
      session.run_mt(x, y, threads, &stats);
      expect_bit_identical(y, clean);
      EXPECT_FALSE(stats.serialFallback);
    }
  }
  drain_warnings();
}

TEST(ExecSessionReuse, SerialIterationsAllocateNothingAfterTheFirst) {
  const sparse::Csr a = sparse::random_square(200, 6, 48);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  ExecSession session(build_plan(a, run.decomp));
  const auto x = random_x(a.num_cols(), 49);

  std::vector<double> y;
  ExecStats stats;
  session.run(x, y, &stats);  // first call sizes y

  long deltas[4];
  for (int iter = 0; iter < 4; ++iter) {
    const long before = test::allocation_count();
    session.run(x, y, &stats);
    deltas[iter] = test::allocation_count() - before;
  }
  for (int iter = 0; iter < 4; ++iter)
    EXPECT_EQ(deltas[iter], 0) << "iteration " << iter + 2 << " allocated";
}

// ------------------------------------------- cache reorder bit-identity ----

TEST(CacheReorder, BitIdenticalToUnreorderedImageAcrossSuite) {
  // The second-level reorder must never change a single output bit: on every
  // suite matrix (strictly validated plan), the reordered and unreordered
  // images agree exactly on the serial path and on run_mt at 1/2/8 threads.
  for (const std::string& name : sparse::suite_names()) {
    const sparse::Csr a = sparse::make_matrix(name, 1, 0.1);
    const model::Decomposition d = model::checkerboard_decompose_k(a, 8);
    const SpmvPlan plan = build_plan(a, d);
    exec::validate_schedule_or_throw(plan);
    const auto x = random_x(a.num_cols(), 60);

    CompileOptions noReorder;
    noReorder.cacheReorder = false;
    ExecSession reordered(plan);
    ExecSession baseline(plan, noReorder);
    std::vector<double> y, yBase;
    baseline.run(x, yBase);
    expect_bit_identical(yBase, execute(plan, x));

    reordered.run(x, y);
    expect_bit_identical(y, yBase);
    for (idx_t threads : {1, 2, 8}) {
      reordered.run_mt(x, y, threads);
      expect_bit_identical(y, yBase);
    }
  }
}

TEST(CacheReorder, BitIdenticalUnderFaultRecovery) {
  // Fault recovery must not interact with the permuted slot numbering: a
  // retried expand task and a fold-triggered serial fallback both reproduce
  // the clean answer on the reordered image.
  const sparse::Csr a = sparse::make_matrix("sherman3", 1, 0.1);
  const auto d = model::checkerboard_decompose_k(a, 8);
  const SpmvPlan plan = build_plan(a, d);
  exec::validate_schedule_or_throw(plan);
  const auto x = random_x(a.num_cols(), 61);
  const auto clean = execute(plan, x);

  ExecSession session(plan);
  ASSERT_TRUE(session.compiled().cacheReordered);
  std::vector<double> y;
  {
    fault::ScopedSpec spec("exec.expand:2");  // proc 1 fails once, retried
    for (idx_t threads : {1, 2, 8}) {
      ExecStats stats;
      session.run_mt(x, y, threads, &stats);
      expect_bit_identical(y, clean);
      EXPECT_EQ(stats.taskRetries, 1);
      EXPECT_FALSE(stats.serialFallback);
    }
  }
  {
    fault::ScopedSpec spec("exec.fold:1,exec.retry:1");  // proc 0: fallback
    for (idx_t threads : {1, 2, 8}) {
      ExecStats stats;
      session.run_mt(x, y, threads, &stats);
      expect_bit_identical(y, clean);
      EXPECT_TRUE(stats.serialFallback);
    }
  }
  drain_warnings();
}

TEST(CacheReorder, AdoptionIsScoreGuarded) {
  // A scrambled mesh has everything to gain: the sweep must adopt RCM. A
  // banded matrix in its natural order has nothing to gain: the first-use
  // numbering already walks the band, so the guard must keep it.
  Rng rng(62);
  const sparse::Csr mesh = sparse::permute_symmetric(
      sparse::stencil2d(30, 30), rng.permutation(900));
  const SpmvPlan shuffledPlan =
      build_plan(mesh, model::checkerboard_decompose_k(mesh, 1));
  EXPECT_GE(exec::compile(shuffledPlan).reorderedProcs, 1);

  const sparse::Csr band = sparse::banded(400, 3);
  const SpmvPlan bandPlan =
      build_plan(band, model::checkerboard_decompose_k(band, 1));
  EXPECT_EQ(exec::compile(bandPlan).reorderedProcs, 0);
}

// ------------------------------------------------------- scratch policy ----

TEST(ExecSessionScratch, MoveAssignAcrossDifferentlySizedImages) {
  // A session reused for a different (smaller or larger) image must behave
  // exactly like a fresh one: construction assigns (not resizes) the scratch,
  // so no stale tail survives the swap in either direction.
  const sparse::Csr big = sparse::random_square(300, 7, 70);
  const sparse::Csr small = sparse::random_square(40, 3, 71);
  const SpmvPlan bigPlan =
      build_plan(big, model::checkerboard_decompose_k(big, 8));
  const SpmvPlan smallPlan =
      build_plan(small, model::checkerboard_decompose_k(small, 4));
  const auto xBig = random_x(big.num_cols(), 72);
  const auto xSmall = random_x(small.num_cols(), 73);

  ExecSession session(bigPlan);
  std::vector<double> y;
  session.run(xBig, y);
  session.run_mt(xBig, y, 2);  // dirty the MT mailboxes too

  session = ExecSession(smallPlan);
  session.run(xSmall, y);
  expect_bit_identical(y, execute(smallPlan, xSmall));
  session.run_mt(xSmall, y, 2);
  expect_bit_identical(y, execute(smallPlan, xSmall));

  session = ExecSession(bigPlan);  // and back up in size
  session.run_mt(xBig, y, 2);
  expect_bit_identical(y, execute(bigPlan, xBig));
}

TEST(ExecSessionScratch, InterleavedSerialAndMtRunsStayIdentical) {
  // run() and run_mt() share xLoc_/partial_ but only run_mt touches the
  // mailboxes; interleaving them in any order must never leak state.
  const sparse::Csr a = sparse::random_square(150, 6, 74);
  const auto d = random_decomposition(a, 6, 75);
  const SpmvPlan plan = build_plan(a, d);
  ExecSession session(plan);
  std::vector<double> y;
  for (int iter = 0; iter < 3; ++iter) {
    const auto x = random_x(a.num_cols(), 80 + static_cast<std::uint64_t>(iter));
    const auto clean = execute(plan, x);
    session.run_mt(x, y, 4);
    expect_bit_identical(y, clean);
    session.run(x, y);
    expect_bit_identical(y, clean);
    session.run_mt(x, y, 1);
    expect_bit_identical(y, clean);
  }
}

TEST(ExecSessionScratch, MtIterationsAllocateNothingAfterTheFirst) {
  // At T = 1 run_mt resolves to no pool and runs its supersteps inline; at
  // T = 4 they run on the pool's team, which needs no task closure, queue
  // node or lock per superstep. Either way: zero allocations once y is
  // sized and the pool has grown.
  const sparse::Csr a = sparse::random_square(200, 6, 76);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  ExecSession session(build_plan(a, run.decomp));
  const auto x = random_x(a.num_cols(), 77);

  for (idx_t threads : {1, 4}) {
    std::vector<double> y;
    session.run_mt(x, y, threads);  // first call sizes y and grows the pool
    const long before = test::allocation_count();
    for (int iter = 0; iter < 50; ++iter) session.run_mt(x, y, threads);
    EXPECT_EQ(test::allocation_count() - before, 0) << "threads=" << threads;
  }
}

TEST(ExecSessionScratch, ConcurrentCallersStayBitIdentical) {
  // Two callers share the pool, each with its own session: one owns the
  // team per superstep, the other runs that superstep inline.
  const sparse::Csr a = sparse::random_square(300, 6, 90);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const SpmvPlan plan = build_plan(a, run.decomp);
  const auto x = random_x(a.num_cols(), 91);
  std::vector<double> clean;
  ExecSession(plan).run(x, clean);

  int mismatches[2] = {0, 0};
  auto caller = [&](int c) {
    ExecSession session(plan);
    std::vector<double> y;
    for (int iter = 0; iter < 200; ++iter) {
      session.run_mt(x, y, 4);
      if (std::memcmp(y.data(), clean.data(), clean.size() * sizeof(double)) != 0)
        ++mismatches[c];
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

TEST(ExecSessionScratch, NestedInPoolWorkStaysBitIdentical) {
  // run_mt called from inside pool work: TaskGroup tasks (run by workers or
  // by the waiting caller) and parallel_for indices (where the team is
  // already owned, so the nested supersteps run inline). No deadlock, and
  // every result equals run().
  const sparse::Csr a = sparse::random_square(200, 6, 92);
  const auto d = random_decomposition(a, 8, 93);
  const SpmvPlan plan = build_plan(a, d);
  const auto x = random_x(a.num_cols(), 94);
  std::vector<double> clean;
  ExecSession(plan).run(x, clean);

  ThreadPool& pool = *ThreadPool::for_request(4);
  constexpr int kCallers = 4;
  std::vector<std::vector<double>> ys(kCallers);
  auto body = [&](long c) {
    ExecSession session(plan);
    for (int iter = 0; iter < 20; ++iter) session.run_mt(x, ys[static_cast<std::size_t>(c)], 4);
  };
  {
    TaskGroup group(pool);
    for (long c = 0; c < kCallers; ++c) group.run([&body, c] { body(c); });
    group.wait();
  }
  for (const auto& y : ys) expect_bit_identical(y, clean);

  for (auto& y : ys) y.clear();
  parallel_for(pool, kCallers, body);
  for (const auto& y : ys) expect_bit_identical(y, clean);
}

// ----------------------------------------------- traffic accounting ----

TEST(ExecStatsProperty, BothExecutorsMatchAnalyzerOnEverySuiteMatrix) {
  // On every matrix of the paper's test suite (reduced scale), the counted
  // traffic of the serial and threaded executors must equal both the
  // communication analyzer's totals and the plan's own accounting.
  for (const std::string& name : sparse::suite_names()) {
    const sparse::Csr a = sparse::make_matrix(name, 1, 0.1);
    const model::Decomposition d = model::checkerboard_decompose_k(a, 8);
    const SpmvPlan plan = build_plan(a, d);
    const comm::CommStats cs = comm::analyze(a, d);
    ASSERT_EQ(plan.total_words(), cs.totalWords) << name;
    ASSERT_EQ(plan.total_messages(), cs.expandMessages + cs.foldMessages) << name;

    const auto x = random_x(a.num_cols(), 50);
    ExecStats serialStats, mtStats;
    const auto ySerial = execute(plan, x, &serialStats);
    const auto yMt = execute_mt(plan, x, 4, &mtStats);
    EXPECT_EQ(serialStats.wordsSent, cs.totalWords) << name;
    EXPECT_EQ(serialStats.messagesSent, cs.expandMessages + cs.foldMessages) << name;
    EXPECT_EQ(mtStats.wordsSent, cs.totalWords) << name;
    EXPECT_EQ(mtStats.messagesSent, cs.expandMessages + cs.foldMessages) << name;
    expect_bit_identical(ySerial, yMt);

    // And the executors must actually multiply correctly.
    const auto yRef = multiply(a, x);
    ASSERT_EQ(ySerial.size(), yRef.size()) << name;
    for (std::size_t i = 0; i < yRef.size(); ++i)
      EXPECT_NEAR(ySerial[i], yRef[i], 1e-9 * (1.0 + std::abs(yRef[i]))) << name;
  }
}

}  // namespace
}  // namespace fghp::spmv
