// SpGEMM workload tests: task-graph construction, the schedule lowering vs
// the independent volume analyzer, the paper's cutsize == communication
// -volume theorem carried to the second workload, bit-identical execution
// across thread counts against the reference multiply, determinism
// validation of corrupted schedules, the zero-allocation serial iteration
// guarantee, and the fault retry/fallback ladder — all through the same
// workload-agnostic core that runs SpMV.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "alloc_counter.hpp"
#include "exec/schedule.hpp"
#include "spgemm/finegrain.hpp"
#include "spgemm/plan.hpp"
#include "spgemm/tasks.hpp"
#include "spgemm/volume.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace fghp::spgemm {
namespace {

constexpr std::size_t uz(idx_t v) { return static_cast<std::size_t>(v); }

/// A deterministic random decomposition — cheap, guaranteed-valid owners
/// with no relation to the hypergraph model (exercises the general case).
SpgemmDecomposition random_decomposition(const TaskGraph& t, idx_t K,
                                         std::uint64_t seed) {
  Rng rng(seed);
  SpgemmDecomposition d;
  d.numProcs = K;
  auto fill = [&](std::vector<idx_t>& v, idx_t n) {
    v.resize(uz(n));
    for (auto& p : v) p = static_cast<idx_t>(rng.next() % static_cast<std::uint64_t>(K));
  };
  fill(d.taskOwner, t.num_tasks());
  fill(d.aOwner, t.numA);
  fill(d.bOwner, t.numB);
  fill(d.cOwner, t.num_c());
  return d;
}

struct Fixture {
  sparse::Csr a, b;
  TaskGraph t;
  std::vector<double> cRef;

  Fixture(std::uint64_t seed, idx_t n = 48, idx_t deg = 4) {
    a = sparse::random_square(n, deg, static_cast<idx_t>(seed));
    b = sparse::random_square(n, deg, static_cast<idx_t>(seed + 100));
    t = build_tasks(a, b);
    cRef = reference_multiply(a, b, t);
  }
};

TEST(SpgemmTasks, CanonicalOrderAndCounts) {
  const Fixture f(3);
  const TaskGraph& t = f.t;
  ASSERT_GT(t.num_tasks(), 0);
  EXPECT_EQ(t.numA, f.a.nnz());
  EXPECT_EQ(t.numB, f.b.nnz());

  // Tasks per C entry == number of matching (a_ik, b_kj) pairs; recount the
  // total independently from the operand patterns.
  idx_t want = 0;
  for (idx_t i = 0; i < f.a.num_rows(); ++i)
    for (idx_t k : f.a.row_cols(i)) want += f.b.row_size(k);
  EXPECT_EQ(t.num_tasks(), want);

  // C pattern row-major with ascending columns; taskC nondecreasing and
  // covering every entry.
  for (idx_t g = 1; g < t.num_c(); ++g) {
    EXPECT_LE(t.cRow[uz(g) - 1], t.cRow[uz(g)]);
    if (t.cRow[uz(g) - 1] == t.cRow[uz(g)]) {
      EXPECT_LT(t.cCol[uz(g) - 1], t.cCol[uz(g)]);
    }
  }
  for (idx_t w = 1; w < t.num_tasks(); ++w) {
    EXPECT_LE(t.taskC[uz(w) - 1], t.taskC[uz(w)]);
    EXPECT_LE(t.taskC[uz(w)] - t.taskC[uz(w) - 1], 1);  // every C entry has tasks
  }
  EXPECT_EQ(t.taskC[0], 0);
  EXPECT_EQ(t.taskC[uz(t.num_tasks()) - 1], t.num_c() - 1);
}

TEST(SpgemmTasks, ShapeMismatchThrows) {
  const sparse::Csr a = sparse::random_square(10, 3, 1);
  const sparse::Csr b = sparse::random_square(11, 3, 2);
  EXPECT_THROW(build_tasks(a, b), std::invalid_argument);
}

TEST(SpgemmSchedule, TotalsMatchIndependentAnalyzer) {
  const Fixture f(7);
  for (idx_t K : {1, 2, 4, 7}) {
    const SpgemmDecomposition d = random_decomposition(f.t, K, 17 + static_cast<std::uint64_t>(K));
    const exec::Schedule s = build_schedule(f.t, d);
    EXPECT_TRUE(exec::validate_schedule(s).empty());
    const SpgemmCommStats st = analyze(f.t, d);
    EXPECT_EQ(s.total_words(), st.totalWords) << "K=" << K;
    EXPECT_EQ(static_cast<idx_t>(s.total_messages()), st.totalMessages) << "K=" << K;
    EXPECT_EQ(st.totalWords, st.expandAWords + st.expandBWords + st.foldCWords);
  }
}

// The paper's theorem carried to the second workload: the lambda-1 cutsize
// of a fine-grain SpGEMM hypergraph partition equals the exact total
// communication volume of the decoded decomposition.
TEST(SpgemmTheorem, CutsizeEqualsVolume) {
  struct Case {
    const char* name;
    sparse::Csr a, b;
  };
  std::vector<Case> cases;
  cases.push_back({"random-pair", sparse::random_square(64, 4, 11),
                   sparse::random_square(64, 4, 12)});
  cases.push_back({"stencil-squared", sparse::stencil2d(9, 9), sparse::stencil2d(9, 9)});
  cases.push_back({"random-squared", sparse::random_square(80, 3, 21),
                   sparse::random_square(80, 3, 21)});

  for (const Case& c : cases) {
    const TaskGraph t = build_tasks(c.a, c.b);
    for (idx_t K : {2, 4, 8}) {
      part::PartitionConfig cfg;
      cfg.seed = 42;
      const SpgemmRun run = run_spgemm_finegrain(t, K, cfg);
      const SpgemmCommStats st = analyze(t, run.decomp);
      EXPECT_EQ(run.cutsize, st.totalWords) << c.name << " K=" << K;
    }
  }
}

TEST(SpgemmTheorem, EmptyTaskGraphIsTrivial) {
  // A diagonal times a matrix with an all-zero sparsity overlap: rows of B
  // reachable from A's columns are empty.
  const sparse::Csr a(2, 2, {0, 1, 2}, {0, 1}, {1.0, 1.0});
  const sparse::Csr b(2, 2, {0, 0, 0}, {}, {});
  const TaskGraph t = build_tasks(a, b);
  EXPECT_EQ(t.num_tasks(), 0);
  EXPECT_EQ(t.num_c(), 0);
  part::PartitionConfig cfg;
  const SpgemmRun run = run_spgemm_finegrain(t, 4, cfg);
  EXPECT_EQ(run.cutsize, 0);
  EXPECT_EQ(analyze(t, run.decomp).totalWords, 0);
}

TEST(SpgemmExec, MatchesReferenceAndBitIdenticalAcrossThreads) {
  const Fixture f(5, 64, 4);
  part::PartitionConfig cfg;
  cfg.seed = 42;
  const SpgemmRun run = run_spgemm_finegrain(f.t, 6, cfg);
  SpgemmSession session(f.t, run.decomp);

  std::vector<double> cSerial;
  ExecStats stats;
  session.run(f.a.values(), f.b.values(), cSerial, &stats);
  ASSERT_EQ(cSerial.size(), uz(f.t.num_c()));
  for (std::size_t g = 0; g < cSerial.size(); ++g)
    EXPECT_NEAR(cSerial[g], f.cRef[g], 1e-12) << "entry " << g;

  const SpgemmCommStats st = analyze(f.t, run.decomp);
  EXPECT_EQ(stats.wordsSent, st.totalWords);
  EXPECT_EQ(stats.messagesSent, st.totalMessages);

  for (idx_t threads : {1, 2, 8}) {
    std::vector<double> cMt;
    session.run_mt(f.a.values(), f.b.values(), cMt, threads);
    ASSERT_EQ(cMt.size(), cSerial.size());
    EXPECT_EQ(0, std::memcmp(cMt.data(), cSerial.data(),
                             cSerial.size() * sizeof(double)))
        << "threads=" << threads;
  }
}

TEST(SpgemmExec, DistinctBMatrixRoundTripsThroughMatrixMarket) {
  // The fghp_tool spgemm --b-matrix path: A and B are distinct matrices
  // serialized to Matrix Market and read back before the multiply. The
  // 17-digit writer round-trips every double bitwise, so the product of the
  // re-read pair must match reference_multiply on the originals to the same
  // accumulation-order tolerance as the direct-execution test above.
  const Fixture f(51);
  std::stringstream aTxt, bTxt;
  sparse::write_matrix_market(aTxt, f.a);
  sparse::write_matrix_market(bTxt, f.b);
  const sparse::Csr a2 = sparse::read_matrix_market(aTxt, "a.mtx");
  const sparse::Csr b2 = sparse::read_matrix_market(bTxt, "b.mtx");

  const TaskGraph t = build_tasks(a2, b2);
  ASSERT_EQ(t.num_tasks(), f.t.num_tasks());
  part::PartitionConfig cfg;
  cfg.seed = 42;
  const SpgemmRun run = run_spgemm_finegrain(t, 4, cfg);
  SpgemmSession session(t, run.decomp);
  std::vector<double> c;
  session.run(a2.values(), b2.values(), c);
  ASSERT_EQ(c.size(), f.cRef.size());
  for (std::size_t g = 0; g < c.size(); ++g)
    EXPECT_NEAR(c[g], f.cRef[g], 1e-12) << "C entry " << g;
}

TEST(SpgemmExec, RepeatedIterationsAllocateNothing) {
  const Fixture f(9);
  const SpgemmDecomposition d = random_decomposition(f.t, 4, 31);
  SpgemmSession session(f.t, d);
  std::vector<double> c;
  session.run(f.a.values(), f.b.values(), c);  // first iteration sizes scratch

  const long before = test::allocation_count();
  for (int it = 0; it < 10; ++it) session.run(f.a.values(), f.b.values(), c);
  EXPECT_EQ(test::allocation_count(), before);
}

TEST(SpgemmExec, RepeatedThreadedIterationsAllocateNothing) {
  // Inline at T = 1, on the pool's team at T = 4: after the first call
  // (which sizes C and grows the pool) no superstep allocates.
  const Fixture f(9);
  const SpgemmDecomposition d = random_decomposition(f.t, 8, 31);
  SpgemmSession session(f.t, d);
  for (idx_t threads : {1, 4}) {
    std::vector<double> c;
    session.run_mt(f.a.values(), f.b.values(), c, threads);
    const long before = test::allocation_count();
    for (int it = 0; it < 50; ++it) session.run_mt(f.a.values(), f.b.values(), c, threads);
    EXPECT_EQ(test::allocation_count() - before, 0) << "threads=" << threads;
  }
}

TEST(SpgemmValidate, CorruptedScheduleCaught) {
  const Fixture f(13);
  const SpgemmDecomposition d = random_decomposition(f.t, 5, 37);
  exec::Schedule s = build_schedule(f.t, d);
  ASSERT_TRUE(exec::validate_schedule(s).empty());

  // Find a multi-word expand message in either input space and reverse its
  // ids (and the paired recv's, so only the sorted/deduplicated contract is
  // violated).
  bool corrupted = false;
  for (auto& comm : s.inComm) {
    for (idx_t p = 0; !corrupted && p < s.numProcs; ++p) {
      for (std::size_t m = 0; m < comm[uz(p)].sends.size(); ++m) {
        exec::Msg& send = comm[uz(p)].sends[m];
        if (send.ids.size() < 2) continue;
        std::reverse(send.ids.begin(), send.ids.end());
        for (auto& r : comm[uz(send.peer)].recvs)
          if (r.peer == p && r.pairIndex == static_cast<idx_t>(m)) r.ids = send.ids;
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "fixture produced no multi-word message";

  const auto problems = exec::validate_schedule(s);
  ASSERT_FALSE(problems.empty());
  bool mentioned = false;
  for (const auto& p : problems)
    if (p.find("not strictly increasing") != std::string::npos) mentioned = true;
  EXPECT_TRUE(mentioned);
  EXPECT_THROW(exec::validate_schedule_or_throw(s), InvariantError);
}

TEST(SpgemmValidate, BadOwnerCaught) {
  const Fixture f(15);
  SpgemmDecomposition d = random_decomposition(f.t, 3, 41);
  d.cOwner.back() = 3;  // out of range
  EXPECT_THROW(validate(f.t, d), std::invalid_argument);
  d.cOwner.back() = -1;
  EXPECT_THROW(build_schedule(f.t, d), std::invalid_argument);
}

TEST(SpgemmFault, TaskRetryRecoversBitIdentically) {
  const Fixture f(19, 64, 4);
  const SpgemmDecomposition d = random_decomposition(f.t, 4, 43);
  SpgemmSession session(f.t, d);
  std::vector<double> cSerial;
  session.run(f.a.values(), f.b.values(), cSerial);

  {
    fault::ScopedSpec spec("exec.expand:1");
    std::vector<double> c;
    ExecStats stats;
    session.run_mt(f.a.values(), f.b.values(), c, 4, &stats);
    EXPECT_GE(stats.taskRetries, 1);
    EXPECT_FALSE(stats.serialFallback);
    EXPECT_EQ(0, std::memcmp(c.data(), cSerial.data(), c.size() * sizeof(double)));
  }
  {
    fault::ScopedSpec spec("exec.expand:1,exec.retry:1");
    std::vector<double> c;
    ExecStats stats;
    session.run_mt(f.a.values(), f.b.values(), c, 4, &stats);
    EXPECT_TRUE(stats.serialFallback);
    EXPECT_EQ(0, std::memcmp(c.data(), cSerial.data(), c.size() * sizeof(double)));
  }
}

}  // namespace
}  // namespace fghp::spgemm
