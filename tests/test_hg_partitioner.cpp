// Multilevel hypergraph partitioner tests: clustering/contraction
// invariants, identical-net merging, FM refinement monotonicity, recursive
// bisection with cut-net splitting (the telescoping property), K-way
// refinement, and the facade's balance/determinism guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "hypergraph/builder.hpp"
#include "hypergraph/metrics.hpp"
#include "hypergraph/validate.hpp"
#include "models/finegrain.hpp"
#include "partition/hg/coarsen.hpp"
#include "partition/hg/initial.hpp"
#include "partition/hg/kway_refine.hpp"
#include "partition/hg/partitioner.hpp"
#include "partition/hg/recursive.hpp"
#include "partition/hg/refine.hpp"
#include "sparse/generators.hpp"
#include "util/rng.hpp"

namespace fghp::part {
namespace {

using hg::CutMetric;
using hg::Hypergraph;
using hg::Partition;

Hypergraph random_hg(idx_t numVerts, idx_t numNets, idx_t maxNetSize, Rng& rng,
                     bool unitWeights = false) {
  hg::HypergraphBuilder b(numVerts);
  for (idx_t n = 0; n < numNets; ++n) {
    std::set<idx_t> pins;
    const idx_t size = rng.uniform(2, maxNetSize);
    while (static_cast<idx_t>(pins.size()) < size)
      pins.insert(rng.uniform(0, numVerts - 1));
    std::vector<idx_t> pv(pins.begin(), pins.end());
    b.add_net(pv, 1);
  }
  if (!unitWeights) {
    for (idx_t v = 0; v < numVerts; ++v) b.set_vertex_weight(v, rng.uniform(1, 3));
  }
  return std::move(b).build();
}

/// Fine-grain hypergraph of a mid-size matrix — a realistic instance.
Hypergraph finegrain_instance(std::uint64_t seed = 5) {
  const sparse::Csr a = sparse::random_square(120, 5, seed);
  return model::build_finegrain(a).h;
}

// ------------------------------------------------------------ coarsen ----

TEST(Coarsen, ClusterMapsCoverEveryVertex) {
  Rng rng(1);
  const Hypergraph h = random_hg(80, 60, 6, rng);
  Rng r2(2);
  const auto map = hgc::cluster_hcm(h, r2, 100);
  ASSERT_EQ(map.size(), 80u);
  for (idx_t c : map) EXPECT_NE(c, kInvalidIdx);
}

TEST(Coarsen, HcmProducesAtMostPairs) {
  Rng rng(3);
  const Hypergraph h = random_hg(100, 80, 5, rng);
  Rng r2(4);
  const auto map = hgc::cluster_hcm(h, r2, 100);
  std::vector<idx_t> count(100, 0);
  for (idx_t c : map) ++count[static_cast<std::size_t>(c)];
  for (idx_t c : count) EXPECT_LE(c, 2);
}

TEST(Coarsen, ContractPreservesTotalWeight) {
  Rng rng(7);
  const Hypergraph h = random_hg(60, 50, 6, rng);
  Rng r2(8);
  const auto level = hgc::contract(h, hgc::cluster_hcm(h, r2, 100));
  EXPECT_EQ(level.coarse.total_vertex_weight(), h.total_vertex_weight());
  EXPECT_LT(level.coarse.num_vertices(), h.num_vertices());
  EXPECT_TRUE(hg::validate(level.coarse).empty());
}

TEST(Coarsen, ContractDropsSinglePinNets) {
  hg::HypergraphBuilder b(4);
  b.add_net(std::vector<idx_t>{0, 1});  // collapses into one cluster -> dropped
  b.add_net(std::vector<idx_t>{0, 2});
  Hypergraph h = std::move(b).build();
  const hgc::ClusterMap map = {0, 0, 1, 2};
  const auto level = hgc::contract(h, map);
  EXPECT_EQ(level.coarse.num_vertices(), 3);
  EXPECT_EQ(level.coarse.num_nets(), 1);  // only {cluster0, cluster1} survives
}

TEST(Coarsen, ContractMergesIdenticalNets) {
  hg::HypergraphBuilder b(6);
  b.add_net(std::vector<idx_t>{0, 2}, 1);
  b.add_net(std::vector<idx_t>{1, 3}, 2);  // identical to net 0 after {0,1},{2,3} merge
  b.add_net(std::vector<idx_t>{4, 5}, 1);
  Hypergraph h = std::move(b).build();
  const hgc::ClusterMap map = {0, 0, 1, 1, 2, 3};
  const auto level = hgc::contract(h, map);
  EXPECT_EQ(level.coarse.num_nets(), 2);
  // The merged net carries the summed cost 1 + 2 = 3.
  weight_t maxCost = 0;
  for (idx_t n = 0; n < level.coarse.num_nets(); ++n)
    maxCost = std::max(maxCost, level.coarse.net_cost(n));
  EXPECT_EQ(maxCost, 3);
}

TEST(Coarsen, ProjectedCoarseCutEqualsFineCut) {
  // Any coarse partition, projected through the map, must give the same
  // connectivity-1 cutsize (merged identical nets sum their costs; dropped
  // single-pin nets are never cut).
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const Hypergraph h = random_hg(70, 60, 6, rng);
    Rng r2(static_cast<std::uint64_t>(trial) + 100);
    const auto level = hgc::contract(h, hgc::cluster_hcm(h, r2, 100));
    const idx_t K = 3;
    std::vector<idx_t> coarseAssign(static_cast<std::size_t>(level.coarse.num_vertices()));
    for (auto& a : coarseAssign) a = r2.uniform(0, K - 1);
    const Partition cp(level.coarse, K, coarseAssign);
    std::vector<idx_t> fineAssign(70);
    for (idx_t v = 0; v < 70; ++v)
      fineAssign[static_cast<std::size_t>(v)] =
          coarseAssign[static_cast<std::size_t>(level.fineToCoarse[static_cast<std::size_t>(v)])];
    const Partition fp(h, K, fineAssign);
    EXPECT_EQ(hg::cutsize(level.coarse, cp, CutMetric::kConnectivity),
              hg::cutsize(h, fp, CutMetric::kConnectivity));
  }
}

TEST(Coarsen, OneLevelShrinksRealisticInstance) {
  const Hypergraph h = finegrain_instance();
  Rng rng(11);
  const auto level = hgc::coarsen_one_level(h, rng);
  EXPECT_LT(level.coarse.num_vertices(), h.num_vertices());
  EXPECT_LE(level.coarse.num_pins(), h.num_pins());
}

// ------------------------------------------------------------ initial ----

TEST(Initial, RandomBisectionNearTargets) {
  Rng rng(13);
  const Hypergraph h = random_hg(200, 100, 5, rng, /*unitWeights=*/true);
  const std::array<weight_t, 2> target = {100, 100};
  Rng r2(14);
  const Partition p = hgi::random_bisection(h, target, r2);
  EXPECT_TRUE(p.complete());
  EXPECT_NEAR(static_cast<double>(p.part_weight(0)), 100.0, 2.0);
}

TEST(Initial, GhgReachesTargetWeight) {
  Rng rng(15);
  const Hypergraph h = random_hg(200, 150, 5, rng, /*unitWeights=*/true);
  const std::array<weight_t, 2> target = {120, 80};
  Rng r2(16);
  const Partition p = hgi::ghg_bisection(h, target, r2);
  EXPECT_TRUE(p.complete());
  EXPECT_GE(p.part_weight(1), 80);
  EXPECT_LE(p.part_weight(1), 80 + 3);  // overshoot bounded by max vertex weight
}

TEST(Initial, UnequalTargetsHonored) {
  Rng rng(17);
  const Hypergraph h = random_hg(300, 150, 5, rng, /*unitWeights=*/true);
  const std::array<weight_t, 2> target = {225, 75};
  const std::array<weight_t, 2> maxW = {236, 79};
  PartitionConfig cfg;
  Rng r2(18);
  const Partition p = hgi::initial_bisection(h, target, maxW, cfg, r2);
  EXPECT_LE(p.part_weight(0), maxW[0]);
  EXPECT_LE(p.part_weight(1), maxW[1]);
}

// --------------------------------------------------------------- FM ----

TEST(Fm, NeverWorsensCut) {
  Rng rng(19);
  PartitionConfig cfg;
  hgr::BisectionFM fm(cfg);
  for (int trial = 0; trial < 15; ++trial) {
    const Hypergraph h = random_hg(80, 70, 6, rng);
    std::vector<idx_t> assign(80);
    for (auto& a : assign) a = rng.uniform(0, 1);
    Partition p(h, 2, assign);
    const weight_t before = hgr::BisectionFM::compute_cut(h, p);
    const weight_t total = h.total_vertex_weight();
    const std::array<weight_t, 2> maxW = {total, total};  // no balance pressure
    Rng r2(static_cast<std::uint64_t>(trial));
    const weight_t after = fm.refine(h, p, maxW, r2);
    EXPECT_LE(after, before);
    EXPECT_EQ(after, hgr::BisectionFM::compute_cut(h, p));  // reported == actual
  }
}

TEST(Fm, RespectsBalanceCaps) {
  Rng rng(21);
  PartitionConfig cfg;
  hgr::BisectionFM fm(cfg);
  const Hypergraph h = random_hg(120, 90, 5, rng, /*unitWeights=*/true);
  std::vector<idx_t> assign(120);
  for (idx_t v = 0; v < 120; ++v) assign[static_cast<std::size_t>(v)] = v % 2;
  Partition p(h, 2, assign);
  const std::array<weight_t, 2> maxW = {66, 66};
  Rng r2(22);
  fm.refine(h, p, maxW, r2);
  EXPECT_LE(p.part_weight(0), 66);
  EXPECT_LE(p.part_weight(1), 66);
}

TEST(Fm, RepairsInfeasibleStart) {
  Rng rng(23);
  PartitionConfig cfg;
  hgr::BisectionFM fm(cfg);
  const Hypergraph h = random_hg(100, 60, 5, rng, /*unitWeights=*/true);
  Partition p(h, 2, std::vector<idx_t>(100, 0));  // everything on side 0
  const std::array<weight_t, 2> maxW = {55, 55};
  Rng r2(24);
  fm.refine(h, p, maxW, r2);
  EXPECT_LE(p.part_weight(0), 55);
  EXPECT_LE(p.part_weight(1), 55);
}

TEST(Fm, SolvesSeparableInstanceExactly) {
  // Two cliques of nets joined by nothing: optimal bisection cut is 0.
  hg::HypergraphBuilder b(20);
  Rng rng(25);
  for (int n = 0; n < 30; ++n) {
    std::set<idx_t> pins;
    const idx_t base = n % 2 == 0 ? 0 : 10;
    while (pins.size() < 3) pins.insert(base + rng.uniform(0, 9));
    std::vector<idx_t> pv(pins.begin(), pins.end());
    b.add_net(pv);
  }
  const Hypergraph h = std::move(b).build();
  std::vector<idx_t> assign(20);
  for (idx_t v = 0; v < 20; ++v) assign[static_cast<std::size_t>(v)] = v % 2;  // awful start
  Partition p(h, 2, assign);
  PartitionConfig cfg;
  cfg.maxFmPasses = 10;
  hgr::BisectionFM fm(cfg);
  Rng r2(26);
  // One unit of balance slack; a tight 10/10 cap forbids every first move.
  const weight_t cut = fm.refine(h, p, {11, 11}, r2);
  EXPECT_EQ(cut, 0);
}

// ---------------------------------------------------------- recursive ----

TEST(Recursive, PerLevelEpsilonCompounds) {
  const double eps = 0.03;
  for (idx_t K : {2, 4, 8, 16, 64}) {
    const double lvl = hgrb::per_level_epsilon(eps, K);
    const double levels = std::ceil(std::log2(static_cast<double>(K)));
    EXPECT_NEAR(std::pow(1.0 + lvl, levels), 1.0 + eps, 1e-9);
  }
}

TEST(Recursive, ExtractSideSplitsCutNets) {
  hg::HypergraphBuilder b(6);
  b.add_net(std::vector<idx_t>{0, 1, 3, 4});  // cut: {0,1} left, {3,4} right
  b.add_net(std::vector<idx_t>{0, 2});        // internal left
  b.add_net(std::vector<idx_t>{2, 5});        // cut with single pin each side
  const Hypergraph h = std::move(b).build();
  const Partition bisection(h, 2, {0, 0, 0, 1, 1, 1});

  const auto left = hgrb::extract_side(h, bisection, 0);
  EXPECT_EQ(left.sub.num_vertices(), 3);
  EXPECT_EQ(left.sub.num_nets(), 2);  // net0 restriction {0,1} + net1 {0,2}; net2 drops to 1 pin
  const auto right = hgrb::extract_side(h, bisection, 1);
  EXPECT_EQ(right.sub.num_nets(), 1);  // net0 restriction {3,4}
}

TEST(Recursive, CutNetSplittingTelescopes) {
  // The defining property: sum of bisection cuts == final lambda-1 cutsize.
  Rng rngOuter(27);
  PartitionConfig cfg;
  for (idx_t K : {2, 3, 4, 7, 8}) {
    const Hypergraph h = finegrain_instance(30 + static_cast<std::uint64_t>(K));
    Rng rng(cfg.seed);
    const auto result = hgrb::partition_recursive(h, K, cfg, rng);
    EXPECT_EQ(result.sumOfBisectionCuts,
              hg::cutsize(h, result.partition, CutMetric::kConnectivity))
        << "K=" << K;
  }
}

TEST(Recursive, CoversAllParts) {
  PartitionConfig cfg;
  const Hypergraph h = finegrain_instance(40);
  Rng rng(cfg.seed);
  const auto result = hgrb::partition_recursive(h, 8, cfg, rng);
  std::set<idx_t> used;
  for (idx_t v = 0; v < h.num_vertices(); ++v) used.insert(result.partition.part_of(v));
  EXPECT_EQ(used.size(), 8u);
}

// -------------------------------------------------------- kway refine ----

TEST(KwayRefine, NeverWorsensAndReportsGain) {
  Rng rng(29);
  PartitionConfig cfg;
  for (int trial = 0; trial < 10; ++trial) {
    const Hypergraph h = random_hg(100, 90, 6, rng, /*unitWeights=*/true);
    const idx_t K = 4;
    std::vector<idx_t> assign(100);
    for (idx_t v = 0; v < 100; ++v) assign[static_cast<std::size_t>(v)] = v % K;
    Partition p(h, K, assign);
    const weight_t before = hg::cutsize(h, p, CutMetric::kConnectivity);
    Rng r2(static_cast<std::uint64_t>(trial));
    const weight_t gain = hgk::kway_refine(h, p, cfg, r2);
    const weight_t after = hg::cutsize(h, p, CutMetric::kConnectivity);
    EXPECT_EQ(before - after, gain);
    EXPECT_LE(after, before);
  }
}

TEST(KwayRebalance, HandlesHeavyVertexOnlyParts) {
  // Regression: a part holding only near-cap heavy vertices (hub rows) has
  // no single feasible move or swap; the cascade must aggregate headroom.
  hg::HypergraphBuilder b(0);
  const idx_t K = 4;
  // 8 hubs of weight 90 (two parts of 4 hubs = 360 each) + 240 unit
  // vertices across the other two parts. Total 960, avg 240, cap 247.
  // 8 hubs of weight 90 in two hub-only parts (360 each), 400 unit vertices
  // filling the other two parts to 200 each. Total 1120, avg 280, cap 288:
  // no part can absorb a hub without first exporting units.
  std::vector<idx_t> assign;
  for (int i = 0; i < 8; ++i) {
    b.add_vertex(90);
    assign.push_back(i < 4 ? 0 : 1);
  }
  for (int i = 0; i < 400; ++i) {
    b.add_vertex(1);
    assign.push_back(2 + i % 2);
  }
  const Hypergraph h = std::move(b).build();
  Partition p(h, K, assign);
  EXPECT_GT(p.part_weight(0), 288);
  PartitionConfig cfg;
  Rng rng(1);
  hgk::kway_rebalance(h, p, cfg.epsilon, rng);
  EXPECT_TRUE(hg::is_balanced(h, p, cfg.epsilon));
}

TEST(KwayRefine, PreservesBalance) {
  Rng rng(31);
  PartitionConfig cfg;
  cfg.epsilon = 0.05;
  const Hypergraph h = random_hg(200, 150, 5, rng, /*unitWeights=*/true);
  const idx_t K = 5;
  std::vector<idx_t> assign(200);
  for (idx_t v = 0; v < 200; ++v) assign[static_cast<std::size_t>(v)] = v % K;
  Partition p(h, K, assign);
  Rng r2(32);
  hgk::kway_refine(h, p, cfg, r2);
  EXPECT_TRUE(hg::is_balanced(h, p, cfg.epsilon));
}

// -------------------------------------------------------------- facade ----

class HgPartitionerSweep : public ::testing::TestWithParam<idx_t> {};

TEST_P(HgPartitionerSweep, BalancedAndBetterThanRandom) {
  const idx_t K = GetParam();
  const Hypergraph h = finegrain_instance(50);
  PartitionConfig cfg;
  cfg.epsilon = 0.03;
  const HgResult r = partition_hypergraph(h, K, cfg);

  EXPECT_TRUE(r.partition.complete());
  EXPECT_TRUE(hg::is_balanced(h, r.partition, cfg.epsilon)) << "K=" << K;
  EXPECT_EQ(r.cutsize, hg::cutsize(h, r.partition, CutMetric::kConnectivity));

  // Sanity: beats a random balanced partition by a wide margin.
  Rng rng(1234);
  std::vector<idx_t> assign(static_cast<std::size_t>(h.num_vertices()));
  for (std::size_t v = 0; v < assign.size(); ++v)
    assign[v] = static_cast<idx_t>(v) % K;
  const Partition randomP(h, K, assign);
  if (K > 1) {
    EXPECT_LT(static_cast<double>(r.cutsize),
              0.8 * static_cast<double>(hg::cutsize(h, randomP, CutMetric::kConnectivity)));
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, HgPartitionerSweep, ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(HgPartitioner, DeterministicInSeed) {
  const Hypergraph h = finegrain_instance(60);
  PartitionConfig cfg;
  cfg.seed = 77;
  const HgResult a = partition_hypergraph(h, 8, cfg);
  const HgResult b = partition_hypergraph(h, 8, cfg);
  EXPECT_EQ(a.partition.assignment(), b.partition.assignment());
  cfg.seed = 78;
  const HgResult c = partition_hypergraph(h, 8, cfg);
  EXPECT_NE(a.partition.assignment(), c.partition.assignment());
}

TEST(HgPartitioner, KEqualsOneIsTrivial) {
  const Hypergraph h = finegrain_instance(70);
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(h, 1, cfg);
  EXPECT_EQ(r.cutsize, 0);
  EXPECT_EQ(r.numCutNets, 0);
}

TEST(HgPartitioner, ZeroWeightDummiesDoNotBreakBalance) {
  // Matrix with empty diagonal: every row gets a dummy vertex.
  const sparse::Csr a = sparse::random_square(100, 4, 42, /*withDiagonal=*/false);
  const model::FineGrainModel m = model::build_finegrain(a);
  EXPECT_GT(m.h.num_vertices(), m.numRealVertices);
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(m.h, 4, cfg);
  EXPECT_TRUE(hg::is_balanced(m.h, r.partition, cfg.epsilon));
}

// ------------------------------------------------------- pathological ----

TEST(HgPartitionerEdge, SingleVertex) {
  hg::HypergraphBuilder b(1);
  const Hypergraph h = std::move(b).build();
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(h, 1, cfg);
  EXPECT_EQ(r.partition.part_of(0), 0);
  EXPECT_EQ(r.cutsize, 0);
}

TEST(HgPartitionerEdge, EmptyHypergraph) {
  hg::HypergraphBuilder b(0);
  const Hypergraph h = std::move(b).build();
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(h, 2, cfg);
  EXPECT_EQ(r.cutsize, 0);
  EXPECT_TRUE(r.partition.complete());
}

TEST(HgPartitionerEdge, KGreaterThanVertices) {
  hg::HypergraphBuilder b(3);
  b.add_net(std::vector<idx_t>{0, 1, 2});
  const Hypergraph h = std::move(b).build();
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(h, 8, cfg);
  EXPECT_TRUE(r.partition.complete());
  // Only 3 vertices: cut is at most lambda-1 = 2 for the single net.
  EXPECT_LE(r.cutsize, 2);
}

TEST(HgPartitionerEdge, NetSpanningAllVertices) {
  hg::HypergraphBuilder b(64);
  std::vector<idx_t> all(64);
  std::iota(all.begin(), all.end(), idx_t{0});
  b.add_net(all, 5);
  const Hypergraph h = std::move(b).build();
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(h, 4, cfg);
  // The universal net must end up with lambda = 4: cutsize 5 * 3.
  EXPECT_EQ(r.cutsize, 15);
  EXPECT_TRUE(hg::is_balanced(h, r.partition, cfg.epsilon));
}

TEST(HgPartitionerEdge, ManyIdenticalNets) {
  // 50 copies of the same net must merge during coarsening and still
  // produce the correct cutsize accounting (cost 50 if cut).
  hg::HypergraphBuilder b(32);
  for (int c = 0; c < 50; ++c) {
    b.add_net(std::vector<idx_t>{0, 1, 2, 3});
  }
  for (idx_t v = 4; v < 32; ++v) {
    b.add_net(std::vector<idx_t>{v, (v + 1) % 32});
  }
  const Hypergraph h = std::move(b).build();
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(h, 2, cfg);
  EXPECT_EQ(r.cutsize, hg::cutsize(h, r.partition, hg::CutMetric::kConnectivity));
  // Keeping the 4 shared vertices together is worth 50 units; any sane
  // partitioner does so here.
  std::set<idx_t> parts;
  for (idx_t v = 0; v < 4; ++v) parts.insert(r.partition.part_of(v));
  EXPECT_EQ(parts.size(), 1u);
}

TEST(HgPartitionerEdge, IsolatedVertices) {
  hg::HypergraphBuilder b(20);  // no nets at all
  const Hypergraph h = std::move(b).build();
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(h, 4, cfg);
  EXPECT_EQ(r.cutsize, 0);
  EXPECT_TRUE(hg::is_balanced(h, r.partition, cfg.epsilon));
}

TEST(HgPartitionerEdge, ZeroWeightVerticesOnly) {
  hg::HypergraphBuilder b(0);
  for (int v = 0; v < 10; ++v) b.add_vertex(0);
  b.add_net(std::vector<idx_t>{0, 1, 2});
  const Hypergraph h = std::move(b).build();
  PartitionConfig cfg;
  EXPECT_NO_THROW(partition_hypergraph(h, 2, cfg));
}

}  // namespace
}  // namespace fghp::part
