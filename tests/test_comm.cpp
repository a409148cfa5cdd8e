// Communication-analysis tests: hand-worked examples, and the paper's
// central theorems — the lambda-1 cutsize of a fine-grain partition equals
// the exact total communication volume, and the 1D column-net cutsize
// equals the exact expand volume — also for every model that groups the
// fine-grain hypergraph, on degenerate inputs.
#include <gtest/gtest.h>

#include "comm/volume.hpp"
#include "hypergraph/metrics.hpp"
#include "models/checkerboard.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "models/jagged.hpp"
#include "models/orthogonal.hpp"
#include "partition/gp/gpartitioner.hpp"
#include "partition/hg/partitioner.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/testsuite.hpp"
#include "util/rng.hpp"

namespace fghp::comm {
namespace {

using model::Decomposition;

// ------------------------------------------------------ hand examples ----

TEST(Analyze, NoCommWhenSingleProc) {
  const sparse::Csr a = sparse::random_square(30, 4, 1);
  Decomposition d;
  d.numProcs = 1;
  d.nnzOwner.assign(static_cast<std::size_t>(a.nnz()), 0);
  d.xOwner.assign(30, 0);
  d.yOwner.assign(30, 0);
  const CommStats s = analyze(a, d);
  EXPECT_EQ(s.totalWords, 0);
  EXPECT_EQ(s.expandMessages + s.foldMessages, 0);
  EXPECT_EQ(s.maxProcWords, 0);
}

TEST(Analyze, HandWorkedTwoProcExample) {
  // A = [a00 a01]   proc assignment: a00,a01 -> P0 ; a10,a11 -> P1
  //     [a10 a11]   x0,y0 -> P0 ; x1,y1 -> P1.
  sparse::Coo coo(2, 2);
  coo.add(0, 0, 1);
  coo.add(0, 1, 1);
  coo.add(1, 0, 1);
  coo.add(1, 1, 1);
  const sparse::Csr a = to_csr(std::move(coo));
  Decomposition d;
  d.numProcs = 2;
  d.nnzOwner = {0, 0, 1, 1};
  d.xOwner = {0, 1};
  d.yOwner = {0, 1};
  const CommStats s = analyze(a, d);
  // Expand: x0 needed by P1 (a10) -> 1 word; x1 needed by P0 (a01) -> 1 word.
  EXPECT_EQ(s.expandWords, 2);
  // Fold: rows fully local -> 0 words.
  EXPECT_EQ(s.foldWords, 0);
  EXPECT_EQ(s.expandMessages, 2);
  EXPECT_EQ(s.foldMessages, 0);
  // Each proc sends 1 + receives 1 word.
  EXPECT_EQ(s.maxProcWords, 2);
  // Each proc handles 2 messages (1 sent + 1 received).
  EXPECT_NEAR(s.avgMessagesPerProc, 2.0, 1e-12);
}

TEST(Analyze, HandWorkedColumnSplit) {
  // Same matrix, columnwise split: a00,a10 -> P0 ; a01,a11 -> P1.
  sparse::Coo coo(2, 2);
  coo.add(0, 0, 1);
  coo.add(0, 1, 1);
  coo.add(1, 0, 1);
  coo.add(1, 1, 1);
  const sparse::Csr a = to_csr(std::move(coo));
  Decomposition d;
  d.numProcs = 2;
  d.nnzOwner = {0, 1, 0, 1};
  d.xOwner = {0, 1};
  d.yOwner = {0, 1};
  const CommStats s = analyze(a, d);
  // Expand: every column is used only by its owner -> 0 words.
  EXPECT_EQ(s.expandWords, 0);
  // Fold: row 0 has contributors {P0, P1}, owner P0 -> 1 word; row 1 same -> 1.
  EXPECT_EQ(s.foldWords, 2);
  EXPECT_EQ(s.foldMessages, 2);
}

TEST(Analyze, OwnerOutsideNeedSetStillCounts) {
  // x0 owned by P2 but used only by P0 and P1: expand volume must be 2.
  sparse::Coo coo(1, 1);
  coo.add(0, 0, 1);
  const sparse::Csr a = to_csr(std::move(coo));
  Decomposition d;
  d.numProcs = 3;
  d.nnzOwner = {0};
  d.xOwner = {2};
  d.yOwner = {2};
  const CommStats s = analyze(a, d);
  EXPECT_EQ(s.expandWords, 1);  // P2 -> P0
  EXPECT_EQ(s.foldWords, 1);    // P0 -> P2
}

TEST(Analyze, ScaledAccessors) {
  sparse::Coo coo(4, 4);
  for (idx_t i = 0; i < 4; ++i) coo.add(i, i, 1);
  const sparse::Csr a = to_csr(std::move(coo));
  Decomposition d;
  d.numProcs = 2;
  d.nnzOwner = {0, 0, 1, 1};
  d.xOwner = {1, 1, 0, 0};  // deliberately anti-aligned
  d.yOwner = {1, 1, 0, 0};
  const CommStats s = analyze(a, d);
  EXPECT_EQ(s.totalWords, 8);  // every diagonal entry: 1 expand + 1 fold word
  EXPECT_NEAR(s.scaledTotal(4), 2.0, 1e-12);
}

// ------------------------------------------- the paper's volume theorem ----

class VolumeTheorem : public ::testing::TestWithParam<std::tuple<idx_t, std::uint64_t>> {};

TEST_P(VolumeTheorem, FineGrainCutsizeEqualsTotalVolume) {
  const auto [K, seed] = GetParam();
  const sparse::Csr a = sparse::random_square(120, 5, seed);
  const model::FineGrainModel m = model::build_finegrain(a);

  // Arbitrary (even unbalanced) partitions must satisfy the identity.
  Rng rng(seed * 7 + 1);
  std::vector<idx_t> assign(static_cast<std::size_t>(m.h.num_vertices()));
  for (auto& p : assign) p = rng.uniform(0, K - 1);
  const hg::Partition p(m.h, K, assign);

  const Decomposition d = model::decode_finegrain(a, m, p);
  const CommStats s = analyze(a, d);
  EXPECT_EQ(s.totalWords, hg::cutsize(m.h, p, hg::CutMetric::kConnectivity));
}

TEST_P(VolumeTheorem, FineGrainTheoremWithMissingDiagonals) {
  const auto [K, seed] = GetParam();
  const sparse::Csr a = sparse::random_square(100, 4, seed, /*withDiagonal=*/false);
  const model::FineGrainModel m = model::build_finegrain(a);
  Rng rng(seed + 99);
  std::vector<idx_t> assign(static_cast<std::size_t>(m.h.num_vertices()));
  for (auto& p : assign) p = rng.uniform(0, K - 1);
  const hg::Partition p(m.h, K, assign);
  const Decomposition d = model::decode_finegrain(a, m, p);
  EXPECT_EQ(analyze(a, d).totalWords, hg::cutsize(m.h, p, hg::CutMetric::kConnectivity));
}

TEST_P(VolumeTheorem, ColnetCutsizeEqualsExpandVolume) {
  const auto [K, seed] = GetParam();
  const sparse::Csr a = sparse::random_square(150, 6, seed);
  const model::FineGrainModel m = model::build_finegrain(a);
  const hg::Hypergraph h =
      hg::group(m.h, model::vertex_lines(a, m, model::Line::kRow), a.num_rows());
  Rng rng(seed * 3 + 5);
  std::vector<idx_t> rowPart(static_cast<std::size_t>(a.num_rows()));
  for (auto& p : rowPart) p = rng.uniform(0, K - 1);
  const hg::Partition p(h, K, rowPart);
  const Decomposition d = model::decode_rowwise(a, rowPart, K);
  const CommStats s = analyze(a, d);
  EXPECT_EQ(s.expandWords, hg::cutsize(h, p, hg::CutMetric::kConnectivity));
  EXPECT_EQ(s.foldWords, 0);  // rowwise: rows are fully local
}

INSTANTIATE_TEST_SUITE_P(Sweep, VolumeTheorem,
                         ::testing::Combine(::testing::Values(2, 3, 4, 8, 16),
                                            ::testing::Values(11ull, 22ull, 33ull)));

TEST(VolumeTheoremSuite, HoldsOnRealisticSuiteMatrix) {
  const sparse::Csr a = sparse::make_matrix("nl", 1, 0.1);  // has empty diagonals
  const model::FineGrainModel m = model::build_finegrain(a);
  part::PartitionConfig cfg;
  const part::HgResult r = part::partition_hypergraph(m.h, 16, cfg);
  const Decomposition d = model::decode_finegrain(a, m, r.partition);
  EXPECT_EQ(analyze(a, d).totalWords, r.cutsize);
}

// -------------------------------------------- graph model mis-estimates ----

TEST(GraphModelFlaw, EdgeCutOverestimatesTrueVolume) {
  // The classic flaw: the edge cut counts one word per cut edge, while the
  // real expand sends x_j once per remote *processor*. On a matrix with a
  // dense-ish column, edge cut > true volume.
  sparse::SkewedParams sp;
  sp.n = 300;
  sp.targetNnz = 3000;
  sp.maxColDegree = 80;
  sp.numDenseCols = 6;
  const sparse::Csr a = symmetrized_pattern(sparse::skewed_square(sp, 3));
  const gp::Graph g = model::build_standard_graph(a);
  part::PartitionConfig cfg;
  const part::GpResult r = part::partition_graph(g, 8, cfg);
  const Decomposition d = model::decode_rowwise(a, r.partition.assignment(), 8);
  const CommStats s = analyze(a, d);
  EXPECT_GT(r.edgeCut, s.totalWords);
}

// ------------------------------------------------------- message bounds ----

TEST(MessageBounds, OneDimensionalBoundKMinus1) {
  const sparse::Csr a = sparse::random_square(200, 8, 4);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_hypergraph1d(a, 8, cfg, model::Line::kRow);
  const CommStats s = analyze(a, run.decomp);
  // Each processor sends/receives at most K-1 expand messages each way.
  EXPECT_LE(s.maxMessagesPerProc, 2 * (8 - 1));
  EXPECT_EQ(s.foldMessages, 0);
}

TEST(MessageBounds, FineGrainBoundTwoKMinus1) {
  const sparse::Csr a = sparse::random_square(200, 8, 5);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const CommStats s = analyze(a, run.decomp);
  // Handled = sent + received over both phases <= 2 * 2(K-1).
  EXPECT_LE(s.maxMessagesPerProc, 4 * (8 - 1));
  EXPECT_LE(s.avgMessagesPerProc, 2.0 * 2.0 * (8 - 1));
}

// -------------------------------------------------- internal consistency ----

TEST(AnalyzeInternal, MessageCountsConsistent) {
  const sparse::Csr a = sparse::random_square(150, 6, 71);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 8, cfg);
  const CommStats s = analyze(a, run.decomp);
  // Every directed message is handled twice (sender + receiver).
  idx_t handled = 0;
  for (idx_t p = 0; p < s.numProcs; ++p)
    handled += s.messagesHandled[static_cast<std::size_t>(p)];
  EXPECT_EQ(handled, 2 * (s.expandMessages + s.foldMessages));
  EXPECT_NEAR(s.avgMessagesPerProc, static_cast<double>(handled) / 8.0, 1e-12);
  // Max is indeed the max.
  idx_t mx = 0;
  for (idx_t p = 0; p < s.numProcs; ++p)
    mx = std::max(mx, s.messagesHandled[static_cast<std::size_t>(p)]);
  EXPECT_EQ(mx, s.maxMessagesPerProc);
}

TEST(AnalyzeInternal, MaxProcWordsIsAttained) {
  const sparse::Csr a = sparse::random_square(100, 5, 73);
  const Decomposition d = model::checkerboard_decompose_k(a, 4);
  const CommStats s = analyze(a, d);
  weight_t mx = 0;
  for (idx_t p = 0; p < s.numProcs; ++p)
    mx = std::max(mx, s.sendWords[static_cast<std::size_t>(p)] +
                          s.recvWords[static_cast<std::size_t>(p)]);
  EXPECT_EQ(mx, s.maxProcWords);
}

TEST(AnalyzeInternal, EmptyMatrixNoTraffic) {
  const sparse::Csr a(4, 4, {0, 0, 0, 0, 0}, {}, {});
  Decomposition d;
  d.numProcs = 3;
  d.xOwner = {0, 1, 2, 0};
  d.yOwner = {0, 1, 2, 0};
  const CommStats s = analyze(a, d);
  EXPECT_EQ(s.totalWords, 0);
  EXPECT_EQ(s.expandMessages + s.foldMessages, 0);
}

TEST(AnalyzeInternal, PerProcWordsSumToTotals) {
  const sparse::Csr a = sparse::make_matrix("sherman3", 2, 0.3);
  const Decomposition d = model::checkerboard_decompose_k(a, 6);
  const CommStats s = analyze(a, d);
  weight_t sent = 0, recv = 0;
  for (idx_t p = 0; p < s.numProcs; ++p) {
    sent += s.sendWords[static_cast<std::size_t>(p)];
    recv += s.recvWords[static_cast<std::size_t>(p)];
  }
  EXPECT_EQ(sent, s.totalWords);
  EXPECT_EQ(recv, s.totalWords);
}

// ------------------------------------------- grouped models, degenerate ----
// The 1D, jagged and orthogonal models partition groupings of the
// fine-grain hypergraph and decode through decode_finegrain, so the paper's
// theorem must hold for each of their decompositions: read back as a
// fine-grain partition (nonzero owners, and x_j's owner for a dummy v_jj),
// its lambda-1 cutsize is the exact volume. The inputs are the shapes that
// shrink or drop groups and nets: empty lines, missing diagonals,
// single-entry lines, and more parts than rows.

/// Copy of `a` without the entries of row `row` and column `col`
/// (kInvalidIdx keeps every row or column).
sparse::Csr without_lines(const sparse::Csr& a, idx_t row, idx_t col) {
  sparse::Coo coo(a.num_rows(), a.num_cols());
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    if (i == row) continue;
    for (idx_t j : a.row_cols(i))
      if (j != col) coo.add(i, j, 1.0);
  }
  return to_csr(std::move(coo));
}

/// Every line holds one off-diagonal entry: a_{i, i+1 mod n}.
sparse::Csr cyclic_shift(idx_t n) {
  sparse::Coo coo(n, n);
  for (idx_t i = 0; i < n; ++i) coo.add(i, (i + 1) % n, 1.0);
  return to_csr(std::move(coo));
}

struct DegenerateCase {
  const char* name;
  sparse::Csr a;
  idx_t K;
};

std::vector<DegenerateCase> degenerate_cases() {
  std::vector<DegenerateCase> cases;
  cases.push_back({"empty-row", without_lines(sparse::random_square(40, 4, 7), 5, kInvalidIdx), 4});
  cases.push_back({"empty-col", without_lines(sparse::random_square(40, 4, 8), kInvalidIdx, 9), 6});
  cases.push_back({"empty-row-and-col", without_lines(sparse::random_square(40, 4, 9), 3, 3), 4});
  cases.push_back({"no-diagonal", sparse::random_square(40, 4, 10, /*withDiagonal=*/false), 6});
  cases.push_back({"single-entry-lines", cyclic_shift(24), 4});
  cases.push_back({"k-above-n", sparse::random_square(6, 2, 11), 8});
  cases.push_back({"k-equals-n", sparse::random_square(6, 3, 12, /*withDiagonal=*/false), 6});
  return cases;
}

/// The decomposition read back as a partition of the fine-grain hypergraph.
hg::Partition as_finegrain(const model::FineGrainModel& m, const Decomposition& d) {
  std::vector<idx_t> part(d.nnzOwner);
  part.resize(static_cast<std::size_t>(m.h.num_vertices()));
  for (std::size_t j = 0; j < m.diagVertex.size(); ++j)
    if (m.diagVertex[j] >= m.numRealVertices)
      part[static_cast<std::size_t>(m.diagVertex[j])] = d.xOwner[j];
  return hg::Partition(m.h, d.numProcs, std::move(part));
}

TEST(GroupedModelsDegenerate, CutsizeOfTheFineGrainReadbackEqualsVolume) {
  part::PartitionConfig cfg;
  cfg.seed = 5;
  for (const DegenerateCase& c : degenerate_cases()) {
    const model::FineGrainModel m = model::build_finegrain(c.a);
    const std::pair<const char*, model::ModelRun> runs[] = {
        {"colnet", model::run_hypergraph1d(c.a, c.K, cfg, model::Line::kRow)},
        {"rownet", model::run_hypergraph1d(c.a, c.K, cfg, model::Line::kCol)},
        {"jagged", model::run_jagged_k(c.a, c.K, cfg)},
        {"orthogonal", model::run_orthogonal_k(c.a, c.K, cfg)},
        {"finegrain", model::run_finegrain(c.a, c.K, cfg)},
    };
    for (const auto& [name, run] : runs) {
      SCOPED_TRACE(std::string(c.name) + " " + name);
      const Decomposition& d = run.decomp;
      ASSERT_EQ(d.numProcs, c.K);
      EXPECT_NO_THROW(model::validate(c.a, d));
      EXPECT_TRUE(model::symmetric_vectors(d));
      const CommStats s = analyze(c.a, d);
      EXPECT_EQ(s.totalWords,
                hg::cutsize(m.h, as_finegrain(m, d), hg::CutMetric::kConnectivity));
      const std::string model = name;
      // The models that partition one hypergraph report its cutsize, which
      // the grouping keeps: merged nets and dropped single-pin nets are
      // never cut.
      if (model != "jagged" && model != "orthogonal") {
        EXPECT_EQ(run.objective, s.totalWords);
      }
      if (model == "colnet") {
        EXPECT_EQ(s.foldWords, 0);
        EXPECT_EQ(d.nnzOwner, model::decode_rowwise(c.a, d.xOwner, c.K).nnzOwner);
      }
      if (model == "rownet") {
        EXPECT_EQ(s.expandWords, 0);
      }
    }
  }
}

TEST(GroupedModelsDegenerate, GroupWeightsAreLineNonzeroCounts) {
  for (const DegenerateCase& c : degenerate_cases()) {
    SCOPED_TRACE(c.name);
    const model::FineGrainModel m = model::build_finegrain(c.a);
    const idx_t n = c.a.num_rows();
    std::vector<weight_t> colCount(static_cast<std::size_t>(n), 0);
    for (idx_t j : c.a.col_ind()) ++colCount[static_cast<std::size_t>(j)];
    const hg::Hypergraph rows = hg::group(m.h, model::vertex_lines(c.a, m, model::Line::kRow), n);
    const hg::Hypergraph cols = hg::group(m.h, model::vertex_lines(c.a, m, model::Line::kCol), n);
    for (idx_t i = 0; i < n; ++i) {
      // An empty line weighs 0, like the fine-grain dummy that stands in it.
      EXPECT_EQ(rows.vertex_weight(i), c.a.row_size(i)) << "row " << i;
      EXPECT_EQ(cols.vertex_weight(i), colCount[static_cast<std::size_t>(i)]) << "col " << i;
    }
  }
}

}  // namespace
}  // namespace fghp::comm
