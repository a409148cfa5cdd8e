// Tests for pre-assigned (fixed) vertices — the paper's §3 mechanism for
// reduction problems whose inputs/outputs are pinned to processors — plus
// the V-cycle refinement and the row-net (1D columnwise) model.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "comm/volume.hpp"
#include "hypergraph/builder.hpp"
#include "hypergraph/metrics.hpp"
#include "models/finegrain.hpp"
#include "models/hypergraph1d.hpp"
#include "partition/hg/coarsen.hpp"
#include "partition/hg/kway_refine.hpp"
#include "partition/hg/partitioner.hpp"
#include "partition/hg/vcycle.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "util/rng.hpp"

namespace fghp::part {
namespace {

using hg::Hypergraph;
using hg::Partition;

Hypergraph random_hg(idx_t numVerts, idx_t numNets, idx_t maxNetSize, std::uint64_t seed) {
  Rng rng(seed);
  hg::HypergraphBuilder b(numVerts);
  for (idx_t n = 0; n < numNets; ++n) {
    std::set<idx_t> pins;
    const idx_t size = rng.uniform(2, maxNetSize);
    while (static_cast<idx_t>(pins.size()) < size)
      pins.insert(rng.uniform(0, numVerts - 1));
    std::vector<idx_t> pv(pins.begin(), pins.end());
    b.add_net(pv);
  }
  return std::move(b).build();
}

// ----------------------------------------------------- fixed clustering ----

TEST(FixedCoarsen, ClustersNeverMixSides) {
  const Hypergraph h = random_hg(120, 90, 6, 1);
  hgc::FixedSides fixed(120, -1);
  Rng fixRng(2);
  for (idx_t v = 0; v < 120; ++v) {
    if (fixRng.bernoulli(0.3)) fixed[static_cast<std::size_t>(v)] = fixRng.uniform(0, 1);
  }
  Rng rng(3);
  const hgc::ClusterMap map = hgc::cluster_hcm(h, rng, 100, fixed);
  // No cluster may contain vertices fixed to both sides.
  std::vector<signed char> side(120, -1);
  for (idx_t v = 0; v < 120; ++v) {
    const signed char sv = fixed[static_cast<std::size_t>(v)];
    if (sv < 0) continue;
    auto& slot = side[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    EXPECT_TRUE(slot < 0 || slot == sv) << "vertex " << v;
    slot = sv;
  }
  // contract() must accept it and propagate the pins.
  const auto level = hgc::contract(h, map, fixed);
  ASSERT_EQ(level.coarseFixed.size(), static_cast<std::size_t>(level.coarse.num_vertices()));
}

TEST(FixedCoarsen, ContractRejectsMixedCluster) {
  const Hypergraph h = random_hg(4, 3, 3, 5);
  hgc::FixedSides fixed = {0, 1, -1, -1};
  const hgc::ClusterMap map = {0, 0, 1, 2};  // merges vertices fixed to 0 and 1
  EXPECT_THROW(hgc::contract(h, map, fixed), std::invalid_argument);
}

// ---------------------------------------------------- fixed partitioning ----

class FixedPartitionSweep : public ::testing::TestWithParam<idx_t> {};

TEST_P(FixedPartitionSweep, HonorsEveryPin) {
  const idx_t K = GetParam();
  const sparse::Csr a = sparse::random_square(150, 5, 7);
  const model::FineGrainModel m = model::build_finegrain(a);

  std::vector<idx_t> fixedPart(static_cast<std::size_t>(m.h.num_vertices()), kInvalidIdx);
  Rng rng(11);
  idx_t numFixed = 0;
  for (idx_t v = 0; v < m.h.num_vertices(); ++v) {
    if (rng.bernoulli(0.1)) {
      fixedPart[static_cast<std::size_t>(v)] = rng.uniform(0, K - 1);
      ++numFixed;
    }
  }
  ASSERT_GT(numFixed, 0);

  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(m.h, K, cfg, fixedPart);
  for (idx_t v = 0; v < m.h.num_vertices(); ++v) {
    if (fixedPart[static_cast<std::size_t>(v)] != kInvalidIdx) {
      EXPECT_EQ(r.partition.part_of(v), fixedPart[static_cast<std::size_t>(v)])
          << "vertex " << v;
    }
  }
  EXPECT_TRUE(r.partition.complete());
}

INSTANTIATE_TEST_SUITE_P(KSweep, FixedPartitionSweep, ::testing::Values(2, 4, 8, 16));

TEST(FixedPartition, AllFixedIsIdentity) {
  const sparse::Csr a = sparse::random_square(60, 4, 9);
  const model::FineGrainModel m = model::build_finegrain(a);
  const idx_t K = 4;
  std::vector<idx_t> fixedPart(static_cast<std::size_t>(m.h.num_vertices()));
  Rng rng(13);
  for (auto& f : fixedPart) f = rng.uniform(0, K - 1);
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(m.h, K, cfg, fixedPart);
  EXPECT_EQ(r.partition.assignment(), fixedPart);
}

TEST(FixedPartition, RejectsOutOfRangePin) {
  const sparse::Csr a = sparse::random_square(30, 3, 15);
  const model::FineGrainModel m = model::build_finegrain(a);
  std::vector<idx_t> fixedPart(static_cast<std::size_t>(m.h.num_vertices()), kInvalidIdx);
  fixedPart[0] = 7;  // K is 4
  PartitionConfig cfg;
  EXPECT_THROW(partition_hypergraph(m.h, 4, cfg, fixedPart), std::invalid_argument);
}

TEST(FixedPartition, FreeInstanceUnaffectedByEmptyVector) {
  const sparse::Csr a = sparse::random_square(80, 5, 17);
  const model::FineGrainModel m = model::build_finegrain(a);
  PartitionConfig cfg;
  const HgResult r1 = partition_hypergraph(m.h, 8, cfg);
  const HgResult r2 = partition_hypergraph(m.h, 8, cfg, {});
  EXPECT_EQ(r1.partition.assignment(), r2.partition.assignment());
}

TEST(FixedPartition, KwayRefineAndRebalanceSkipFixed) {
  const Hypergraph h = random_hg(100, 80, 5, 19);
  const idx_t K = 4;
  std::vector<idx_t> fixedPart(100, kInvalidIdx);
  // Vertex 0 pinned to part 3 and stacked into the overloaded part 0 start.
  std::vector<idx_t> assign(100, 0);
  for (idx_t v = 20; v < 100; ++v) assign[static_cast<std::size_t>(v)] = v % K;
  fixedPart[5] = assign[5];
  Partition p(h, K, assign);
  PartitionConfig cfg;
  Rng rng(21);
  hgk::kway_rebalance(h, p, cfg.epsilon, rng, fixedPart);
  hgk::kway_refine(h, p, cfg, rng, fixedPart);
  EXPECT_EQ(p.part_of(5), fixedPart[5]);
}

// ---------------------------------------------- paper's part-vertex trick ----

TEST(FixedPartition, PartVertexEncodingCountsPreAssignedVolume) {
  // The paper's §3: inputs pre-assigned to parts are modeled by adding K
  // zero-weight part vertices, pinning part vertex p into the nets of
  // p's pre-assigned elements, and fixing it to part p. The lambda-1 cut
  // then counts the expand from the pre-assigned owners exactly.
  // Tiny instance: 1 column with 3 nonzeros on 3 different (fixed) parts,
  // x pre-assigned to part 0.
  hg::HypergraphBuilder b(3);              // v0, v1, v2: nonzeros of column j
  const idx_t pv = b.add_vertex(0);        // part vertex for part 0
  b.add_net(std::vector<idx_t>{0, 1, 2, pv});  // column net n_j (+ part pin)
  const Hypergraph h = std::move(b).build();

  const Partition p(h, 3, {0, 1, 2, 0});
  // Lambda = 3 -> volume = 2: part 0 sends x_j to parts 1 and 2.
  EXPECT_EQ(hg::cutsize(h, p, hg::CutMetric::kConnectivity), 2);

  // If all nonzeros sit on the owner's part, no words move.
  const Partition q(h, 3, {0, 0, 0, 0});
  EXPECT_EQ(hg::cutsize(h, q, hg::CutMetric::kConnectivity), 0);
}

TEST(FixedPartition, DecodedVolumeStillEqualsCutsize) {
  // The volume theorem is agnostic to how the partition was obtained —
  // including with pinned vertices.
  const sparse::Csr a = sparse::random_square(100, 5, 51);
  const model::FineGrainModel m = model::build_finegrain(a);
  const idx_t K = 4;
  std::vector<idx_t> fixedPart(static_cast<std::size_t>(m.h.num_vertices()), kInvalidIdx);
  Rng rng(53);
  for (idx_t v = 0; v < m.h.num_vertices(); ++v) {
    if (rng.bernoulli(0.2)) fixedPart[static_cast<std::size_t>(v)] = rng.uniform(0, K - 1);
  }
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(m.h, K, cfg, fixedPart);
  const model::Decomposition d = model::decode_finegrain(a, m, r.partition);
  EXPECT_EQ(comm::analyze(a, d).totalWords, r.cutsize);
}

TEST(FixedPartition, HeavilyPinnedStillImprovesOnRandomFree) {
  // Even with 30% of vertices pinned randomly, the partitioner should beat
  // a fully random assignment on the free remainder.
  const sparse::Csr a = sparse::random_square(120, 5, 55);
  const model::FineGrainModel m = model::build_finegrain(a);
  const idx_t K = 4;
  Rng rng(57);
  std::vector<idx_t> fixedPart(static_cast<std::size_t>(m.h.num_vertices()), kInvalidIdx);
  std::vector<idx_t> randomAll(static_cast<std::size_t>(m.h.num_vertices()));
  for (idx_t v = 0; v < m.h.num_vertices(); ++v) {
    randomAll[static_cast<std::size_t>(v)] = rng.uniform(0, K - 1);
    if (rng.bernoulli(0.3))
      fixedPart[static_cast<std::size_t>(v)] = randomAll[static_cast<std::size_t>(v)];
  }
  PartitionConfig cfg;
  const HgResult r = partition_hypergraph(m.h, K, cfg, fixedPart);
  const Partition randomP(m.h, K, randomAll);
  EXPECT_LT(r.cutsize, hg::cutsize(m.h, randomP, hg::CutMetric::kConnectivity));
}

// --------------------------------------------------------------- vcycle ----

TEST(Vcycle, GroupedClusteringRespectsGroups) {
  const Hypergraph h = random_hg(90, 70, 6, 23);
  std::vector<idx_t> group(90);
  for (idx_t v = 0; v < 90; ++v) group[static_cast<std::size_t>(v)] = v % 3;
  Rng rng(25);
  const auto map = hgv::cluster_hcm_grouped(h, rng, 100, group);
  std::vector<idx_t> clusterGroup(90, kInvalidIdx);
  for (idx_t v = 0; v < 90; ++v) {
    auto& slot = clusterGroup[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    if (slot == kInvalidIdx) {
      slot = group[static_cast<std::size_t>(v)];
    } else {
      EXPECT_EQ(slot, group[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Vcycle, NeverWorsensCutsizeAndKeepsBalance) {
  PartitionConfig cfg;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const sparse::Csr a = sparse::random_square(200, 6, seed);
    const model::FineGrainModel m = model::build_finegrain(a);
    const idx_t K = 8;
    // Start from a deliberately mediocre striped partition, rebalanced.
    std::vector<idx_t> assign(static_cast<std::size_t>(m.h.num_vertices()));
    for (std::size_t v = 0; v < assign.size(); ++v) assign[v] = static_cast<idx_t>(v) % K;
    Partition p(m.h, K, assign);
    const weight_t before = hg::cutsize(m.h, p, hg::CutMetric::kConnectivity);
    Rng rng(seed + 31);
    const weight_t gain = hgv::vcycle_refine(m.h, p, cfg, rng);
    const weight_t after = hg::cutsize(m.h, p, hg::CutMetric::kConnectivity);
    EXPECT_EQ(before - after, gain);
    EXPECT_LE(after, before);
    EXPECT_TRUE(hg::is_balanced(m.h, p, cfg.epsilon));
  }
}

TEST(Vcycle, ImprovesStripedPartitionSubstantially) {
  const sparse::Csr a = sparse::stencil2d(30, 30);
  const model::FineGrainModel m = model::build_finegrain(a);
  std::vector<idx_t> assign(static_cast<std::size_t>(m.h.num_vertices()));
  for (std::size_t v = 0; v < assign.size(); ++v) assign[v] = static_cast<idx_t>(v) % 4;
  Partition p(m.h, 4, assign);
  const weight_t before = hg::cutsize(m.h, p, hg::CutMetric::kConnectivity);
  PartitionConfig cfg;
  Rng rng(37);
  hgv::vcycle_refine(m.h, p, cfg, rng);
  const weight_t after = hg::cutsize(m.h, p, hg::CutMetric::kConnectivity);
  EXPECT_LT(static_cast<double>(after), 0.7 * static_cast<double>(before));
}

// --------------------------------------------------------- row-net model ----

TEST(RowNet, StructureMirrorsColnet) {
  sparse::Coo coo(3, 3);
  coo.add(0, 0, 1);
  coo.add(0, 2, 1);
  coo.add(1, 1, 1);
  coo.add(2, 2, 1);
  const sparse::Csr a = to_csr(std::move(coo));
  const model::FineGrainModel m = model::build_finegrain(a);
  const Hypergraph h = hg::group(m.h, model::vertex_lines(a, m, model::Line::kCol), 3);
  EXPECT_EQ(h.num_vertices(), 3);  // columns
  // Rows 1 and 2 hold only their diagonal, so their nets have one pin and
  // drop out; so do all column nets. Row 0 has columns {0, 2}.
  ASSERT_EQ(h.num_nets(), 1);
  EXPECT_EQ(std::vector<idx_t>(h.pins(0).begin(), h.pins(0).end()),
            (std::vector<idx_t>{0, 2}));
  // Vertex weight = column nonzero count.
  EXPECT_EQ(h.vertex_weight(2), 2);
}

TEST(RowNet, DecodeColwiseIsConformalAndFoldOnly) {
  const sparse::Csr a = sparse::random_square(150, 6, 41);
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_hypergraph1d(a, 8, cfg, model::Line::kCol);
  EXPECT_TRUE(model::symmetric_vectors(run.decomp));
  const comm::CommStats s = comm::analyze(a, run.decomp);
  EXPECT_EQ(s.expandWords, 0);  // columnwise: x is local by construction
  EXPECT_GT(s.foldWords, 0);
}

TEST(RowNet, CutsizeEqualsFoldVolume) {
  // The dual of the column-net volume theorem.
  const sparse::Csr a = sparse::random_square(120, 5, 43);
  const model::FineGrainModel m = model::build_finegrain(a);
  const std::vector<idx_t> cols = model::vertex_lines(a, m, model::Line::kCol);
  const Hypergraph h = hg::group(m.h, cols, a.num_cols());
  Rng rng(45);
  const idx_t K = 6;
  std::vector<idx_t> colPart(static_cast<std::size_t>(a.num_cols()));
  for (auto& p : colPart) p = rng.uniform(0, K - 1);
  const Partition p(h, K, colPart);
  const model::Decomposition d =
      model::decode_finegrain(a, m, Partition(m.h, K, hg::lift(cols, p)));
  EXPECT_EQ(d.xOwner, colPart);
  EXPECT_EQ(comm::analyze(a, d).foldWords,
            hg::cutsize(h, p, hg::CutMetric::kConnectivity));
}

}  // namespace
}  // namespace fghp::part
