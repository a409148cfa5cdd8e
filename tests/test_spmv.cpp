// Distributed SpMV tests: reference kernel, plan construction, serial and
// threaded executors versus the reference, and exact agreement of counted
// traffic with the communication analyzer.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/volume.hpp"
#include "models/checkerboard.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "spmv/costmodel.hpp"
#include "spmv/executor.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "spmv/transpose.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "util/rng.hpp"

namespace fghp::spmv {
namespace {

std::vector<double> random_x(idx_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform01() * 2.0 - 1.0;
  return x;
}

void expect_near_vec(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9 * (1.0 + std::abs(a[i]))) << "index " << i;
  }
}

model::Decomposition random_decomposition(const sparse::Csr& a, idx_t K, std::uint64_t seed) {
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

// ----------------------------------------------------------- reference ----

TEST(Reference, IdentityIsNoOp) {
  const sparse::Csr a = sparse::identity(5);
  const auto x = random_x(5, 1);
  expect_near_vec(multiply(a, x), x);
}

TEST(Reference, SmallDenseByHand) {
  // [1 2; 3 4] * [1, -1] = [-1, -1]
  sparse::Coo coo(2, 2);
  coo.add(0, 0, 1);
  coo.add(0, 1, 2);
  coo.add(1, 0, 3);
  coo.add(1, 1, 4);
  const sparse::Csr a = to_csr(std::move(coo));
  const std::vector<double> x = {1.0, -1.0};
  const auto y = multiply(a, x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Reference, RectangularShapes) {
  sparse::Coo coo(2, 3);
  coo.add(0, 2, 2.0);
  coo.add(1, 0, 3.0);
  const sparse::Csr a = to_csr(std::move(coo));
  const std::vector<double> x = {1.0, 5.0, -1.0};
  const auto y = multiply(a, x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(Reference, SizeMismatchThrows) {
  const sparse::Csr a = sparse::identity(3);
  std::vector<double> x(2), y(3);
  EXPECT_THROW(multiply_into(a, x, y), std::invalid_argument);
}

// ---------------------------------------------------------------- plan ----

TEST(Plan, LocalEntriesPartitionTheMatrix) {
  const sparse::Csr a = sparse::random_square(60, 5, 2);
  const auto d = random_decomposition(a, 5, 3);
  const SpmvPlan plan = build_plan(a, d);
  ASSERT_EQ(plan.numProcs, 5);
  std::size_t total = 0;
  for (const auto& t : plan.tasks) total += t.outId.size();
  EXPECT_EQ(total, static_cast<std::size_t>(a.nnz()));
}

TEST(Plan, OwnershipListsPartitionVectors) {
  const sparse::Csr a = sparse::random_square(60, 5, 4);
  const auto d = random_decomposition(a, 4, 5);
  const SpmvPlan plan = build_plan(a, d);
  std::vector<int> xSeen(60, 0), ySeen(60, 0);
  for (std::size_t p = 0; p < plan.outComm.size(); ++p) {
    for (idx_t j : plan.inComm[0][p].owned) ++xSeen[static_cast<std::size_t>(j)];
    for (idx_t i : plan.outComm[p].owned) ++ySeen[static_cast<std::size_t>(i)];
  }
  for (int c : xSeen) EXPECT_EQ(c, 1);
  for (int c : ySeen) EXPECT_EQ(c, 1);
}

TEST(Plan, TrafficMatchesAnalyzer) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const sparse::Csr a = sparse::random_square(80, 6, seed);
    const auto d = random_decomposition(a, 6, seed + 10);
    const SpmvPlan plan = build_plan(a, d);
    const comm::CommStats s = comm::analyze(a, d);
    EXPECT_EQ(plan.total_words(), s.totalWords);
    EXPECT_EQ(plan.total_messages(), s.expandMessages + s.foldMessages);
  }
}

TEST(Plan, RecvPairIndicesPointBack) {
  const sparse::Csr a = sparse::random_square(50, 5, 9);
  const auto d = random_decomposition(a, 4, 11);
  const SpmvPlan plan = build_plan(a, d);
  const auto& xComm = plan.inComm[0];
  const auto& yComm = plan.outComm;
  for (idx_t p = 0; p < plan.numProcs; ++p) {
    for (const exec::Msg& m : xComm[static_cast<std::size_t>(p)].recvs) {
      const auto& peerSends = xComm[static_cast<std::size_t>(m.peer)].sends;
      ASSERT_LT(static_cast<std::size_t>(m.pairIndex), peerSends.size());
      EXPECT_EQ(peerSends[static_cast<std::size_t>(m.pairIndex)].peer, p);
      EXPECT_EQ(peerSends[static_cast<std::size_t>(m.pairIndex)].ids, m.ids);
    }
    for (const exec::Msg& m : yComm[static_cast<std::size_t>(p)].recvs) {
      const auto& peerSends = yComm[static_cast<std::size_t>(m.peer)].sends;
      ASSERT_LT(static_cast<std::size_t>(m.pairIndex), peerSends.size());
      EXPECT_EQ(peerSends[static_cast<std::size_t>(m.pairIndex)].peer, p);
    }
  }
}

// ------------------------------------------------------------ executor ----

class ExecutorModels : public ::testing::TestWithParam<idx_t> {};

TEST_P(ExecutorModels, FineGrainMatchesReference) {
  const idx_t K = GetParam();
  const sparse::Csr a = sparse::random_square(120, 6, 21);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, K, cfg);
  const SpmvPlan plan = build_plan(a, run.decomp);
  const auto x = random_x(a.num_cols(), 77);
  ExecStats stats;
  const auto y = execute(plan, x, &stats);
  expect_near_vec(y, multiply(a, x));
  const comm::CommStats cs = comm::analyze(a, run.decomp);
  EXPECT_EQ(stats.wordsSent, cs.totalWords);
  EXPECT_EQ(stats.messagesSent, cs.expandMessages + cs.foldMessages);
}

TEST_P(ExecutorModels, RowwiseMatchesReference) {
  const idx_t K = GetParam();
  const sparse::Csr a = sparse::random_square(120, 6, 22);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_hypergraph1d(a, K, cfg, model::Line::kRow);
  const SpmvPlan plan = build_plan(a, run.decomp);
  const auto x = random_x(a.num_cols(), 78);
  expect_near_vec(execute(plan, x), multiply(a, x));
}

TEST_P(ExecutorModels, CheckerboardMatchesReference) {
  const idx_t K = GetParam();
  const sparse::Csr a = sparse::random_square(120, 6, 23);
  const auto d = model::checkerboard_decompose_k(a, K);
  const SpmvPlan plan = build_plan(a, d);
  const auto x = random_x(a.num_cols(), 79);
  expect_near_vec(execute(plan, x), multiply(a, x));
}

TEST_P(ExecutorModels, ArbitraryDecompositionMatchesReference) {
  // Even a completely random decomposition (no model structure at all) must
  // execute correctly.
  const idx_t K = GetParam();
  const sparse::Csr a = sparse::random_square(100, 5, 24);
  const auto d = random_decomposition(a, K, 25);
  const SpmvPlan plan = build_plan(a, d);
  const auto x = random_x(a.num_cols(), 80);
  expect_near_vec(execute(plan, x), multiply(a, x));
}

INSTANTIATE_TEST_SUITE_P(KSweep, ExecutorModels, ::testing::Values(1, 2, 4, 7, 16));

TEST(Executor, RejectsWrongXSize) {
  const sparse::Csr a = sparse::random_square(40, 4, 30);
  const auto d = random_decomposition(a, 3, 31);
  const SpmvPlan plan = build_plan(a, d);
  std::vector<double> tooShort(39, 1.0);
  EXPECT_THROW(execute(plan, tooShort), std::invalid_argument);
  EXPECT_THROW(execute_mt(plan, tooShort), std::invalid_argument);
}

TEST(Executor, MatrixWithMissingDiagonals) {
  const sparse::Csr a = sparse::random_square(90, 5, 31, /*withDiagonal=*/false);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 6, cfg);
  const SpmvPlan plan = build_plan(a, run.decomp);
  const auto x = random_x(a.num_cols(), 81);
  expect_near_vec(execute(plan, x), multiply(a, x));
}

TEST(Executor, EmptyRowsAndColumns) {
  sparse::Coo coo(6, 6);
  coo.add(0, 0, 2.0);
  coo.add(4, 2, -1.0);
  const sparse::Csr a = to_csr(std::move(coo));
  const auto d = random_decomposition(a, 3, 32);
  const SpmvPlan plan = build_plan(a, d);
  const auto x = random_x(6, 82);
  const auto y = execute(plan, x);
  expect_near_vec(y, multiply(a, x));
  EXPECT_DOUBLE_EQ(y[1], 0.0);  // empty row stays zero
}

// --------------------------------------------------------- MT executor ----

class MtExecutor : public ::testing::TestWithParam<idx_t> {};

TEST_P(MtExecutor, MatchesSerialExecutorBitForBit) {
  const idx_t threads = GetParam();
  const sparse::Csr a = sparse::random_square(150, 6, 41);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const SpmvPlan plan = build_plan(a, run.decomp);
  const auto x = random_x(a.num_cols(), 83);
  ExecStats serialStats, mtStats;
  const auto ySerial = execute(plan, x, &serialStats);
  const auto yMt = execute_mt(plan, x, threads, &mtStats);
  // Identical summation order => bitwise identical results.
  ASSERT_EQ(ySerial.size(), yMt.size());
  for (std::size_t i = 0; i < ySerial.size(); ++i) EXPECT_EQ(ySerial[i], yMt[i]);
  EXPECT_EQ(serialStats.wordsSent, mtStats.wordsSent);
  EXPECT_EQ(serialStats.messagesSent, mtStats.messagesSent);
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, MtExecutor, ::testing::Values(0, 1, 2, 3, 8));

TEST(MtExecutor, RepeatedRunsDeterministic) {
  const sparse::Csr a = sparse::random_square(100, 5, 51);
  const auto d = random_decomposition(a, 6, 52);
  const SpmvPlan plan = build_plan(a, d);
  const auto x = random_x(a.num_cols(), 84);
  const auto y1 = execute_mt(plan, x, 4);
  const auto y2 = execute_mt(plan, x, 4);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

// ------------------------------------------------------------ transpose ----

class TransposeSpmv : public ::testing::TestWithParam<idx_t> {};

TEST_P(TransposeSpmv, MatchesReferenceTransposeProduct) {
  const idx_t K = GetParam();
  const sparse::Csr a = sparse::random_square(140, 6, 91);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, K, cfg);
  const SpmvPlan plan = build_transpose_plan(a, run.decomp);
  const auto w = random_x(a.num_rows(), 92);
  const auto z = execute(plan, w);
  const auto zRef = multiply(sparse::transpose(a), w);
  expect_near_vec(z, zRef);
}

INSTANTIATE_TEST_SUITE_P(KSweep, TransposeSpmv, ::testing::Values(1, 2, 4, 8));

TEST(TransposeSpmvProps, SameTotalTrafficAsForward) {
  // With conformal vectors the expand/fold roles swap, so total volume of
  // A^T w equals that of A x — the fine-grain cutsize prices both.
  const sparse::Csr a = sparse::random_square(150, 6, 93);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const comm::CommStats fwd = comm::analyze(a, run.decomp);
  const model::Decomposition dt = transpose_decomposition(a, run.decomp);
  const comm::CommStats bwd = comm::analyze(sparse::transpose(a), dt);
  EXPECT_EQ(fwd.totalWords, bwd.totalWords);
  EXPECT_EQ(fwd.expandWords, bwd.foldWords);
  EXPECT_EQ(fwd.foldWords, bwd.expandWords);
}

TEST(TransposeSpmvProps, DecompositionRemapIsConsistent) {
  // The transpose decomposition owns the same multiset of entries per proc.
  const sparse::Csr a = sparse::random_square(100, 5, 94);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 6, cfg);
  const model::Decomposition dt = transpose_decomposition(a, run.decomp);
  std::vector<idx_t> fwdCount(6, 0), bwdCount(6, 0);
  for (idx_t p : run.decomp.nnzOwner) ++fwdCount[static_cast<std::size_t>(p)];
  for (idx_t p : dt.nnzOwner) ++bwdCount[static_cast<std::size_t>(p)];
  EXPECT_EQ(fwdCount, bwdCount);
  // Spot-check a specific entry: owner of a_ij equals owner of (A^T)_ji.
  const sparse::Csr at = sparse::transpose(a);
  std::size_t e = 0;
  for (idx_t i = 0; i < a.num_rows() && e < 25; ++i) {
    for (idx_t j : a.row_cols(i)) {
      // Locate (j, i) in at's entry order.
      std::size_t pos = static_cast<std::size_t>(at.row_ptr()[static_cast<std::size_t>(j)]);
      for (idx_t c : at.row_cols(j)) {
        if (c == i) break;
        ++pos;
      }
      EXPECT_EQ(dt.nnzOwner[pos], run.decomp.nnzOwner[e]);
      ++e;
      if (e >= 25) break;
    }
  }
}

TEST(TransposeSpmvProps, MtExecutorAgrees) {
  const sparse::Csr a = sparse::random_square(120, 5, 95);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 6, cfg);
  const SpmvPlan plan = build_transpose_plan(a, run.decomp);
  const auto w = random_x(a.num_rows(), 96);
  const auto zs = execute(plan, w);
  const auto zm = execute_mt(plan, w, 4);
  for (std::size_t i = 0; i < zs.size(); ++i) EXPECT_EQ(zs[i], zm[i]);
}

// ----------------------------------------------------------- cost model ----

TEST(CostModel, SerialBaselineAndSpeedup) {
  const sparse::Csr a = sparse::random_square(200, 6, 61);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const comm::CommStats cs = comm::analyze(a, run.decomp);
  const CostEstimate est = estimate_cost(a, run.decomp, cs);
  EXPECT_GT(est.computeSeconds, 0.0);
  EXPECT_GE(est.commSeconds, 0.0);
  EXPECT_NEAR(est.serialSeconds, 2.0 * a.nnz() * 5e-10, 1e-15);
  EXPECT_GT(est.speedup, 0.0);
}

TEST(CostModel, ZeroCommWhenSingleProc) {
  const sparse::Csr a = sparse::random_square(100, 5, 62);
  model::Decomposition d;
  d.numProcs = 1;
  d.nnzOwner.assign(static_cast<std::size_t>(a.nnz()), 0);
  d.xOwner.assign(100, 0);
  d.yOwner.assign(100, 0);
  const comm::CommStats cs = comm::analyze(a, d);
  const CostEstimate est = estimate_cost(a, d, cs);
  EXPECT_DOUBLE_EQ(est.commSeconds, 0.0);
  EXPECT_NEAR(est.speedup, 1.0, 1e-9);
}

TEST(CostModel, ParameterMonotonicity) {
  // Doubling beta doubles the word cost contribution; doubling gamma scales
  // compute; alpha scales the message term.
  const sparse::Csr a = sparse::random_square(150, 6, 65);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const comm::CommStats cs = comm::analyze(a, run.decomp);

  CostParams base;
  const CostEstimate e0 = estimate_cost(a, run.decomp, cs, base);
  CostParams noAlpha = base;
  noAlpha.alpha = 0.0;
  CostParams noBeta = base;
  noBeta.beta = 0.0;
  const CostEstimate eA = estimate_cost(a, run.decomp, cs, noAlpha);
  const CostEstimate eB = estimate_cost(a, run.decomp, cs, noBeta);
  EXPECT_LE(eA.commSeconds, e0.commSeconds);
  EXPECT_LE(eB.commSeconds, e0.commSeconds);
  CostParams doubleGamma = base;
  doubleGamma.gamma = 2.0 * base.gamma;
  const CostEstimate eG = estimate_cost(a, run.decomp, cs, doubleGamma);
  EXPECT_NEAR(eG.computeSeconds, 2.0 * e0.computeSeconds, 1e-15);
  EXPECT_NEAR(eG.serialSeconds, 2.0 * e0.serialSeconds, 1e-15);
}

TEST(CostModel, MoreProcessorsMoreParallelCompute) {
  const sparse::Csr a = sparse::random_square(200, 6, 66);
  part::PartitionConfig cfg;
  const model::ModelRun r4 = model::run_finegrain(a, 4, cfg);
  const model::ModelRun r16 = model::run_finegrain(a, 16, cfg);
  const CostEstimate e4 = estimate_cost(a, r4.decomp, comm::analyze(a, r4.decomp));
  const CostEstimate e16 = estimate_cost(a, r16.decomp, comm::analyze(a, r16.decomp));
  EXPECT_LT(e16.computeSeconds, e4.computeSeconds);
}

TEST(CostModel, LowerVolumeLowerCommTime) {
  // A model decomposition should beat the random decomposition under the
  // cost model on the same matrix/K.
  const sparse::Csr a = sparse::random_square(200, 6, 63);
  part::PartitionConfig cfg;
  const model::ModelRun good = model::run_finegrain(a, 8, cfg);
  const auto bad = random_decomposition(a, 8, 64);
  const CostEstimate goodEst =
      estimate_cost(a, good.decomp, comm::analyze(a, good.decomp));
  const CostEstimate badEst = estimate_cost(a, bad, comm::analyze(a, bad));
  EXPECT_LT(goodEst.commSeconds, badEst.commSeconds);
}

}  // namespace
}  // namespace fghp::spmv
