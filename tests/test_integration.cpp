// End-to-end integration tests: the full pipeline (suite matrix -> model ->
// partitioner -> decode -> analyze -> simulate) and the paper's headline
// qualitative claims on reduced-scale instances.
#include <gtest/gtest.h>

#include "comm/volume.hpp"
#include "hypergraph/metrics.hpp"
#include "models/checkerboard.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "partition/hg/partitioner.hpp"
#include "spmv/executor.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "sparse/testsuite.hpp"
#include "util/rng.hpp"

namespace fghp {
namespace {

struct PipelineCase {
  std::string matrix;
  double scale;
  idx_t K;
};

// Keeps the parameterized test names free of object bytes, which would
// include heap addresses that vary from run to run.
void PrintTo(const PipelineCase& tc, std::ostream* os) {
  *os << tc.matrix << " scale=" << tc.scale << " K=" << tc.K;
}

class Pipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(Pipeline, AllModelsEndToEnd) {
  const auto& tc = GetParam();
  const sparse::Csr a = sparse::make_matrix(tc.matrix, 3, tc.scale);
  part::PartitionConfig cfg;
  cfg.seed = 9;

  const auto check = [&](const model::ModelRun& run, const char* label) {
    SCOPED_TRACE(label);
    EXPECT_TRUE(model::symmetric_vectors(run.decomp));
    const comm::CommStats s = comm::analyze(a, run.decomp);
    EXPECT_GE(s.totalWords, 0);
    // Simulate and verify numerically.
    const spmv::SpmvPlan plan = spmv::build_plan(a, run.decomp);
    Rng rng(4);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
    for (auto& v : x) v = rng.uniform01();
    spmv::ExecStats es;
    const auto y = spmv::execute(plan, x, &es);
    const auto yRef = spmv::multiply(a, x);
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], yRef[i], 1e-9 * (1.0 + std::abs(yRef[i])));
    EXPECT_EQ(es.wordsSent, s.totalWords);
  };

  check(model::run_graph_model(a, tc.K, cfg), "graph-1d");
  check(model::run_hypergraph1d(a, tc.K, cfg, model::Line::kRow), "hypergraph-1d");
  check(model::run_finegrain(a, tc.K, cfg), "finegrain-2d");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Pipeline,
    ::testing::Values(PipelineCase{"sherman3", 0.25, 8}, PipelineCase{"bcspwr10", 0.2, 4},
                      PipelineCase{"ken-11", 0.1, 8}, PipelineCase{"nl", 0.1, 4},
                      PipelineCase{"vibrobox", 0.05, 4}, PipelineCase{"finan512", 0.05, 8}),
    [](const ::testing::TestParamInfo<PipelineCase>& paramInfo) {
      std::string n = paramInfo.param.matrix + "_K" + std::to_string(paramInfo.param.K);
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(HeadlineClaims, FineGrainBeats1DModelsOnAverage) {
  // Reduced-scale version of Table 2's qualitative outcome: averaged over a
  // few LP-like matrices, fine-grain volume < 1D hypergraph < graph model.
  part::PartitionConfig cfg;
  double graphTotal = 0, hg1dTotal = 0, fgTotal = 0;
  for (const char* name : {"ken-11", "cq9", "cre-d"}) {
    const sparse::Csr a = sparse::make_matrix(name, 5, 0.1);
    const idx_t K = 8;
    graphTotal += static_cast<double>(
        comm::analyze(a, model::run_graph_model(a, K, cfg).decomp).totalWords);
    hg1dTotal += static_cast<double>(
        comm::analyze(a, model::run_hypergraph1d(a, K, cfg, model::Line::kRow).decomp).totalWords);
    fgTotal += static_cast<double>(
        comm::analyze(a, model::run_finegrain(a, K, cfg).decomp).totalWords);
  }
  EXPECT_LT(fgTotal, hg1dTotal);
  EXPECT_LT(hg1dTotal, graphTotal);
}

TEST(HeadlineClaims, FineGrainBeatsCheckerboard) {
  // The intro's point about checkerboard schemes: no explicit volume
  // minimization, so the fine-grain model should beat them comfortably.
  part::PartitionConfig cfg;
  const sparse::Csr a = sparse::make_matrix("sherman3", 7, 0.3);
  const idx_t K = 16;
  const auto fg =
      comm::analyze(a, model::run_finegrain(a, K, cfg).decomp).totalWords;
  const auto cb =
      comm::analyze(a, model::checkerboard_decompose_k(a, K)).totalWords;
  EXPECT_LT(static_cast<double>(fg), 0.9 * static_cast<double>(cb));
}

TEST(HeadlineClaims, ImbalanceStaysBelowThreePercent) {
  // The paper reports < 3% load imbalance for all instances (eps = 0.03).
  part::PartitionConfig cfg;  // epsilon defaults to 0.03
  const sparse::Csr a = sparse::make_matrix("pltexpA4-6", 11, 0.1);
  for (idx_t K : {4, 16}) {
    const model::ModelRun run = model::run_finegrain(a, K, cfg);
    const model::LoadStats loads = model::compute_loads(a, run.decomp);
    EXPECT_LT(loads.percentImbalance, 3.0 + 1e-6) << "K=" << K;
  }
}

TEST(HeadlineClaims, VolumeTheoremAcrossSuite) {
  // cutsize == measured volume on several reduced suite matrices.
  part::PartitionConfig cfg;
  for (const char* name : {"sherman3", "nl", "cre-b"}) {
    const sparse::Csr a = sparse::make_matrix(name, 13, 0.1);
    const model::FineGrainModel m = model::build_finegrain(a);
    const part::HgResult r = part::partition_hypergraph(m.h, 16, cfg);
    const model::Decomposition d = model::decode_finegrain(a, m, r.partition);
    EXPECT_EQ(comm::analyze(a, d).totalWords, r.cutsize) << name;
  }
}

class SuiteTheorem : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteTheorem, CutsizeEqualsVolumeOnEveryGeneratorFamily) {
  // Tiny-scale analog of every suite matrix: every generator code path
  // (stencil, geometric+hubs, block-angular LP with staircase coupling,
  // block-ring) must satisfy the fine-grain volume theorem exactly.
  const sparse::Csr a = sparse::make_matrix(GetParam(), 17, 0.04);
  const model::FineGrainModel m = model::build_finegrain(a);
  part::PartitionConfig cfg;
  const part::HgResult r = part::partition_hypergraph(m.h, 8, cfg);
  const model::Decomposition d = model::decode_finegrain(a, m, r.partition);
  EXPECT_EQ(comm::analyze(a, d).totalWords, r.cutsize);
  EXPECT_TRUE(model::symmetric_vectors(d));
  EXPECT_TRUE(hg::is_balanced(m.h, r.partition, cfg.epsilon));
}

INSTANTIATE_TEST_SUITE_P(AllFourteen, SuiteTheorem,
                         ::testing::ValuesIn(sparse::suite_names()),
                         [](const ::testing::TestParamInfo<std::string>& paramInfo) {
                           std::string n = paramInfo.param;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

}  // namespace
}  // namespace fghp
