// Decomposition-model tests: structure of the built graphs/hypergraphs,
// decode correctness, consistency condition, dummy diagonal vertices,
// checkerboard grids.
#include <gtest/gtest.h>

#include <set>

#include "hypergraph/validate.hpp"
#include "models/checkerboard.hpp"
#include "models/decomposition.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace fghp::model {
namespace {

sparse::Csr paper_figure_matrix() {
  // A 4x4 matrix echoing Figure 1: row i has entries at h, i, k, j;
  // column j has entries at i, j, l.
  // Use indices: h=0, i=1, k=2, j=3, and an extra row l=... keep 4x4:
  // rows: 0..3. Entries: (1,0),(1,1),(1,2),(1,3) (row-net m_i of size 4),
  // (0,3),(1,3),(3,3) column-net n_j of size 3, plus diagonal fill.
  sparse::Coo coo(4, 4);
  coo.add(0, 0, 1);
  coo.add(0, 3, 1);
  coo.add(1, 0, 1);
  coo.add(1, 1, 1);
  coo.add(1, 2, 1);
  coo.add(1, 3, 1);
  coo.add(2, 2, 1);
  coo.add(3, 3, 1);
  return to_csr(std::move(coo));
}

// ------------------------------------------------------- decomposition ----

TEST(Decomposition, ValidateCatchesShapeErrors) {
  const sparse::Csr a = sparse::identity(3);
  Decomposition d;
  d.numProcs = 2;
  d.nnzOwner = {0, 1};  // wrong size
  d.xOwner = {0, 1, 0};
  d.yOwner = {0, 1, 0};
  EXPECT_THROW(validate(a, d), std::invalid_argument);
  d.nnzOwner = {0, 1, 2};  // out of range
  EXPECT_THROW(validate(a, d), std::invalid_argument);
  d.nnzOwner = {0, 1, 1};
  EXPECT_NO_THROW(validate(a, d));
}

TEST(Decomposition, LoadStats) {
  const sparse::Csr a = sparse::identity(4);
  Decomposition d;
  d.numProcs = 2;
  d.nnzOwner = {0, 0, 0, 1};
  d.xOwner = {0, 0, 0, 1};
  d.yOwner = {0, 0, 0, 1};
  const LoadStats s = compute_loads(a, d);
  EXPECT_EQ(s.nnzPerProc, (std::vector<weight_t>{3, 1}));
  EXPECT_EQ(s.maxLoad, 3);
  EXPECT_NEAR(s.percentImbalance, 50.0, 1e-9);
  EXPECT_TRUE(symmetric_vectors(d));
  d.yOwner = {1, 0, 0, 1};
  EXPECT_FALSE(symmetric_vectors(d));
}

// --------------------------------------------------------- graph model ----

TEST(GraphModel, BuildsSymmetrizedGraphWithRowWeights) {
  const sparse::Csr a = paper_figure_matrix();
  const gp::Graph g = build_standard_graph(a);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.vertex_weight(1), 4);  // row 1 has 4 nonzeros
  EXPECT_EQ(g.vertex_weight(2), 1);
  // a(0,3) and a(3,0)? only a(0,3) stored -> edge weight 1.
  for (const gp::Adj& adj : g.neighbors(0)) {
    if (adj.to == 3) {
      EXPECT_EQ(adj.weight, 1);
    }
    if (adj.to == 1) {
      EXPECT_EQ(adj.weight, 1);  // only a(1,0)
    }
  }
}

TEST(GraphModel, SymmetricPairGetsWeightTwo) {
  sparse::Coo coo(2, 2);
  coo.add(0, 1, 1);
  coo.add(1, 0, 1);
  const gp::Graph g = build_standard_graph(to_csr(std::move(coo)));
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.neighbors(0)[0].weight, 2);
}

TEST(GraphModel, DecodeRowwiseConformal) {
  const sparse::Csr a = paper_figure_matrix();
  const std::vector<idx_t> rowPart = {0, 1, 0, 1};
  const Decomposition d = decode_rowwise(a, rowPart, 2);
  EXPECT_TRUE(symmetric_vectors(d));
  EXPECT_EQ(d.xOwner, rowPart);
  // Every nonzero of row i belongs to rowPart[i].
  std::size_t e = 0;
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    for (idx_t k = 0; k < a.row_size(i); ++k)
      EXPECT_EQ(d.nnzOwner[e++], rowPart[static_cast<std::size_t>(i)]);
  }
}

TEST(GraphModel, EndToEndBalanced) {
  const sparse::Csr a = sparse::random_square(200, 6, 3);
  part::PartitionConfig cfg;
  const ModelRun run = run_graph_model(a, 4, cfg);
  const LoadStats loads = compute_loads(a, run.decomp);
  // 1D rowwise balance is on row weights; generous bound.
  EXPECT_LT(loads.percentImbalance, 10.0);
  EXPECT_TRUE(symmetric_vectors(run.decomp));
}

// ------------------------------------------------------- 1D hypergraph ----

TEST(Hypergraph1d, ColumnNetStructure) {
  const sparse::Csr a = paper_figure_matrix();
  const FineGrainModel m = build_finegrain(a);
  const hg::Hypergraph h = hg::group(m.h, vertex_lines(a, m, Line::kRow), 4);
  EXPECT_EQ(h.num_vertices(), 4);
  // Column 1 holds only a_11, so its net has one pin and drops out, as do
  // all row nets: the nets of columns 0, 2 and 3 remain, in that order.
  EXPECT_EQ(h.num_nets(), 3);
  hg::validate_or_throw(h);
  // Column 3 has nonzeros in rows 0, 1, 3 -> net {0,1,3}.
  EXPECT_EQ(std::vector<idx_t>(h.pins(2).begin(), h.pins(2).end()),
            (std::vector<idx_t>{0, 1, 3}));
  // Vertex weights = row nonzero counts.
  EXPECT_EQ(h.vertex_weight(1), 4);
}

TEST(Hypergraph1d, ConsistencyPinAddedWhenDiagonalMissing) {
  sparse::Coo coo(3, 3);
  coo.add(0, 1, 1);  // column 1 has row 0 only; a_11 missing
  coo.add(1, 0, 1);
  coo.add(2, 2, 1);
  const sparse::Csr a = to_csr(std::move(coo));
  const FineGrainModel m = build_finegrain(a);
  const hg::Hypergraph h = hg::group(m.h, vertex_lines(a, m, Line::kRow), 3);
  // Net for column 1 must contain row 1 as consistency pin, after the rows
  // that store an entry of the column.
  ASSERT_EQ(h.num_nets(), 2);
  EXPECT_EQ(std::vector<idx_t>(h.pins(1).begin(), h.pins(1).end()),
            (std::vector<idx_t>{0, 1}));
}

TEST(Hypergraph1d, EndToEndBalancedAndConformal) {
  const sparse::Csr a = sparse::random_square(200, 6, 4);
  part::PartitionConfig cfg;
  const ModelRun run = run_hypergraph1d(a, 4, cfg, Line::kRow);
  EXPECT_TRUE(symmetric_vectors(run.decomp));
  EXPECT_LT(compute_loads(a, run.decomp).percentImbalance, 10.0);
}

// ----------------------------------------------------------- finegrain ----

TEST(FineGrain, StructureMatchesPaper) {
  const sparse::Csr a = paper_figure_matrix();  // 8 nonzeros, full diag
  const FineGrainModel m = build_finegrain(a);
  EXPECT_EQ(m.numRealVertices, 8);
  EXPECT_EQ(m.h.num_vertices(), 8);           // no dummies needed
  EXPECT_EQ(m.h.num_nets(), 8);               // 2 * M
  hg::validate_or_throw(m.h);
  // Every real vertex has exactly two nets (its row net and column net).
  for (idx_t v = 0; v < m.numRealVertices; ++v) EXPECT_EQ(m.h.vertex_degree(v), 2);
  // Row net of row 1 has 4 pins; column net of column 3 has 3 pins.
  EXPECT_EQ(m.h.net_size(m.row_net(1)), 4);
  EXPECT_EQ(m.h.net_size(m.col_net(3)), 3);
  // Unit weights, unit costs.
  EXPECT_EQ(m.h.total_vertex_weight(), 8);
  EXPECT_EQ(m.h.net_cost(0), 1);
}

TEST(FineGrain, VertexNetIncidenceIsRowAndColumn) {
  const sparse::Csr a = paper_figure_matrix();
  const FineGrainModel m = build_finegrain(a);
  // Entry (1,2) is CSR entry index: row0 has 2 entries, then (1,0),(1,1),(1,2)
  // => index 4.
  const idx_t v = 4;
  std::set<idx_t> nets(m.h.nets(v).begin(), m.h.nets(v).end());
  EXPECT_EQ(nets, (std::set<idx_t>{m.row_net(1), m.col_net(2)}));
}

TEST(FineGrain, DummyVerticesForMissingDiagonals) {
  sparse::Coo coo(3, 3);
  coo.add(0, 1, 1);
  coo.add(1, 0, 1);
  coo.add(2, 2, 1);
  const sparse::Csr a = to_csr(std::move(coo));  // diag present only at (2,2)
  const FineGrainModel m = build_finegrain(a);
  EXPECT_EQ(m.numRealVertices, 3);
  EXPECT_EQ(m.h.num_vertices(), 5);  // dummies for rows 0 and 1
  // Dummies carry zero weight.
  EXPECT_EQ(m.h.total_vertex_weight(), 3);
  // Consistency: diagVertex[j] is a pin of both m_j and n_j.
  for (idx_t j = 0; j < 3; ++j) {
    const idx_t dv = m.diagVertex[static_cast<std::size_t>(j)];
    std::set<idx_t> nets(m.h.nets(dv).begin(), m.h.nets(dv).end());
    EXPECT_TRUE(nets.count(m.row_net(j)) == 1) << "j=" << j;
    EXPECT_TRUE(nets.count(m.col_net(j)) == 1) << "j=" << j;
  }
  hg::validate_or_throw(m.h);
}

TEST(FineGrain, DecodeAssignsVectorsToDiagonalOwners) {
  const sparse::Csr a = paper_figure_matrix();
  const FineGrainModel m = build_finegrain(a);
  std::vector<idx_t> assign(static_cast<std::size_t>(m.h.num_vertices()));
  for (std::size_t v = 0; v < assign.size(); ++v) assign[v] = static_cast<idx_t>(v % 3);
  const hg::Partition p(m.h, 3, assign);
  const Decomposition d = decode_finegrain(a, m, p);
  EXPECT_TRUE(symmetric_vectors(d));
  for (idx_t j = 0; j < a.num_rows(); ++j) {
    EXPECT_EQ(d.xOwner[static_cast<std::size_t>(j)],
              p.part_of(m.diagVertex[static_cast<std::size_t>(j)]));
  }
  for (idx_t e = 0; e < a.nnz(); ++e)
    EXPECT_EQ(d.nnzOwner[static_cast<std::size_t>(e)], p.part_of(e));
}

TEST(FineGrain, EndToEndBalancedUnderUnitWeights) {
  const sparse::Csr a = sparse::random_square(150, 6, 5);
  part::PartitionConfig cfg;
  const ModelRun run = run_finegrain(a, 8, cfg);
  EXPECT_TRUE(symmetric_vectors(run.decomp));
  // Unit task weights: the partitioner's eps bound carries to the loads.
  EXPECT_LT(compute_loads(a, run.decomp).percentImbalance, 100.0 * cfg.epsilon + 1.0);
}

TEST(FineGrain, RequiresSquare) {
  sparse::Coo coo(2, 3);
  coo.add(0, 2, 1);
  EXPECT_THROW(build_finegrain(to_csr(std::move(coo))), std::invalid_argument);
}

// -------------------------------------------------------- checkerboard ----

TEST(Checkerboard, GridOwnershipPattern) {
  const sparse::Csr a = sparse::dense_square(8);
  const Decomposition d = checkerboard_decompose(a, 2, 2);
  EXPECT_EQ(d.numProcs, 4);
  validate(a, d);
  EXPECT_TRUE(symmetric_vectors(d));
  // Dense 8x8 with equal splits: entry (0,0) on proc 0, (7,7) on proc 3.
  EXPECT_EQ(d.nnzOwner.front(), 0);
  EXPECT_EQ(d.nnzOwner.back(), 3);
  // Block structure: owner depends only on (rowBlock, colBlock).
  std::size_t e = 0;
  for (idx_t i = 0; i < 8; ++i) {
    for (idx_t j = 0; j < 8; ++j, ++e) {
      EXPECT_EQ(d.nnzOwner[e], (i / 4) * 2 + (j / 4));
    }
  }
}

TEST(Checkerboard, BalancesNonzerosAcrossBlocks) {
  const sparse::Csr a = sparse::random_square(400, 8, 6);
  const Decomposition d = checkerboard_decompose(a, 4, 4);
  const LoadStats loads = compute_loads(a, d);
  // Cartesian products of balanced 1D splits cannot guarantee tight 2D
  // balance; just require every processor got work and no pathological skew.
  EXPECT_LT(loads.percentImbalance, 100.0);
}

TEST(Checkerboard, KFactorization) {
  const sparse::Csr a = sparse::dense_square(12);
  EXPECT_EQ(checkerboard_decompose_k(a, 16).numProcs, 16);
  EXPECT_EQ(checkerboard_decompose_k(a, 12).numProcs, 12);
  EXPECT_EQ(checkerboard_decompose_k(a, 7).numProcs, 7);  // 1 x 7 grid
}

TEST(Checkerboard, OneByOneGridOwnsEverything) {
  const sparse::Csr a = sparse::random_square(50, 4, 7);
  const Decomposition d = checkerboard_decompose(a, 1, 1);
  for (idx_t p : d.nnzOwner) EXPECT_EQ(p, 0);
}

}  // namespace
}  // namespace fghp::model
