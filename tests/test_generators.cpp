// Generator and test-suite tests: structural invariants of every generator
// plus a parameterized sweep asserting that each named suite analog matches
// the paper's Table 1 statistics (exact row counts, nonzeros within
// tolerance).
#include <gtest/gtest.h>

#include <cmath>

#include "sparse/convert.hpp"
#include "sparse/generators.hpp"
#include "sparse/stats.hpp"
#include "sparse/testsuite.hpp"

namespace fghp::sparse {

// Prints a suite entry by name, so the parameterized test names carry no
// object bytes (gtest's default dump includes heap addresses, which vary
// from run to run).
static void PrintTo(const SuiteEntry& e, std::ostream* os) { *os << e.name; }

namespace {

// -------------------------------------------------------- generators ----

TEST(Generators, Stencil2dShape) {
  const Csr a = stencil2d(5, 7);
  EXPECT_EQ(a.num_rows(), 35);
  EXPECT_EQ(a.num_diag_entries(), 35);
  const MatrixStats s = compute_stats(a);
  EXPECT_TRUE(s.structurallySymmetric);
  EXPECT_EQ(s.maxPerRow, 5);
  EXPECT_EQ(s.minPerRow, 3);
  // nnz = n + 2 * #grid edges
  EXPECT_EQ(a.nnz(), 35 + 2 * (4 * 7 + 5 * 6));
}

TEST(Generators, Stencil2dSingleCell) {
  const Csr a = stencil2d(1, 1);
  EXPECT_EQ(a.num_rows(), 1);
  EXPECT_EQ(a.nnz(), 1);
}

TEST(Generators, Stencil3dFullKeep) {
  const Csr a = stencil3d(3, 3, 3, 1.0, 1);
  EXPECT_EQ(a.num_rows(), 27);
  const MatrixStats s = compute_stats(a);
  EXPECT_TRUE(s.structurallySymmetric);
  EXPECT_EQ(s.maxPerRow, 7);  // center point
  EXPECT_EQ(a.nnz(), 27 + 2 * (2 * 3 * 3 * 3));
}

TEST(Generators, Stencil3dZeroKeepIsDiagonal) {
  const Csr a = stencil3d(4, 4, 4, 0.0, 1);
  EXPECT_EQ(a.nnz(), 64);
  EXPECT_EQ(a.num_diag_entries(), 64);
}

TEST(Generators, Stencil3dDeterministic) {
  EXPECT_EQ(stencil3d(5, 4, 3, 0.5, 42), stencil3d(5, 4, 3, 0.5, 42));
  EXPECT_NE(stencil3d(5, 4, 3, 0.5, 42), stencil3d(5, 4, 3, 0.5, 43));
}

TEST(Generators, GeometricRespectsCapsAndFloors) {
  GeometricParams p;
  p.n = 500;
  p.avgOffDiagDeg = 6.0;
  p.minOffDiagDeg = 2;
  p.maxOffDiagDeg = 12;
  const Csr a = geometric_matrix(p, 7);
  const MatrixStats s = compute_stats(a);
  EXPECT_TRUE(s.structurallySymmetric);
  EXPECT_EQ(a.num_diag_entries(), 500);
  EXPECT_GE(s.minPerRow, 1 + p.minOffDiagDeg);
  EXPECT_LE(s.maxPerRow, 1 + p.maxOffDiagDeg);
  EXPECT_NEAR(s.avgPerRow, 1.0 + p.avgOffDiagDeg, 2.5);
}

TEST(Generators, GeometricHubsExceedTheCap) {
  GeometricParams p;
  p.n = 600;
  p.avgOffDiagDeg = 4.0;
  p.maxOffDiagDeg = 10;
  p.numHubs = 3;
  p.hubDegree = 80;
  const Csr a = geometric_matrix(p, 21);
  const MatrixStats s = compute_stats(a);
  EXPECT_GE(s.maxPerRow, 60);  // hubs materialized well above the cap
  EXPECT_TRUE(s.structurallySymmetric);
}

TEST(Generators, SkewedBlockStructureKeepsPinsLocal) {
  SkewedParams p;
  p.n = 1200;
  p.targetNnz = 12000;
  p.numDenseCols = 0;
  p.numBlocks = 12;
  p.localFraction = 1.0;  // every non-dense pin stays in its block
  p.bandFraction = 0.0;
  p.includeDiagonal = true;
  const Csr a = skewed_square(p, 5);
  const idx_t blockSize = 100;
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    for (idx_t j : a.row_cols(i)) {
      EXPECT_EQ(i / blockSize, j / blockSize) << "cross-block pin at localFraction 1";
    }
  }
}

TEST(Generators, SkewedCouplingWindowConcentratesCrossPins) {
  SkewedParams p;
  p.n = 1200;
  p.targetNnz = 14000;
  p.numDenseCols = 0;
  p.numBlocks = 12;
  p.localFraction = 0.7;
  p.couplingWidth = 10;
  p.uniformCrossFraction = 0.0;
  p.bandFraction = 0.0;
  p.includeDiagonal = true;
  const Csr a = skewed_square(p, 6);
  const idx_t blockSize = 100;
  // Every cross-block pin must land in the first 10 rows of the next block.
  idx_t cross = 0;
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    for (idx_t j : a.row_cols(i)) {
      const idx_t bi = i / blockSize, bj = j / blockSize;
      if (bi == bj) continue;
      ++cross;
      EXPECT_EQ(bi, (bj + 1) % 12) << "cross pin not in the next block";
      EXPECT_LT(i % blockSize, 10) << "cross pin outside the coupling window";
    }
  }
  EXPECT_GT(cross, 100);  // the staircase actually materialized
}

TEST(Generators, SkewedColumnFloorEnforced) {
  SkewedParams p;
  p.n = 500;
  p.targetNnz = 5000;
  p.minPerRow = 1;
  p.minPerCol = 4;
  p.includeDiagonal = true;
  const Csr a = skewed_square(p, 7);
  const MatrixStats s = compute_stats(a);
  EXPECT_GE(s.minPerCol, 4);
}

TEST(Generators, GeometricDeterministic) {
  GeometricParams p;
  p.n = 200;
  p.avgOffDiagDeg = 4.0;
  EXPECT_EQ(geometric_matrix(p, 5), geometric_matrix(p, 5));
}

TEST(Generators, SkewedHitsNnzTarget) {
  SkewedParams p;
  p.n = 2000;
  p.targetNnz = 30000;
  p.minPerRow = 2;
  p.maxColDegree = 300;
  p.numDenseCols = 10;
  const Csr a = skewed_square(p, 3);
  EXPECT_EQ(a.num_rows(), 2000);
  EXPECT_NEAR(static_cast<double>(a.nnz()), 30000.0, 30000.0 * 0.12);
  const MatrixStats s = compute_stats(a);
  EXPECT_GE(s.minPerRow, 2);
  EXPECT_LE(s.maxPerCol, 300);
  EXPECT_GE(s.maxPerCol, 150);  // dense columns materialized
}

TEST(Generators, SkewedWithoutDiagonalLeavesHoles) {
  SkewedParams p;
  p.n = 500;
  p.targetNnz = 4000;
  p.includeDiagonal = false;
  const Csr a = skewed_square(p, 9);
  EXPECT_LT(a.num_diag_entries(), a.num_rows());
}

TEST(Generators, BlockRingShape) {
  BlockRingParams p;
  p.numBlocks = 8;
  p.blockSize = 32;
  p.intraPicksPerNode = 3;
  p.numHubs = 2;
  p.hubDegree = 40;
  const Csr a = block_ring(p, 11);
  EXPECT_EQ(a.num_rows(), 256);
  EXPECT_EQ(a.num_diag_entries(), 256);
  EXPECT_TRUE(compute_stats(a).structurallySymmetric);
}

TEST(Generators, BlockRingWithoutHubsIsBlockDiagonal) {
  BlockRingParams p;
  p.numBlocks = 4;
  p.blockSize = 16;
  p.intraPicksPerNode = 2;
  const Csr a = block_ring(p, 13);
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    for (idx_t j : a.row_cols(i)) {
      EXPECT_EQ(i / 16, j / 16) << "cross-block entry without hubs/ring";
    }
  }
}

TEST(Generators, BlockRingRingCouplesNeighbors) {
  BlockRingParams p;
  p.numBlocks = 4;
  p.blockSize = 16;
  p.intraPicksPerNode = 1;
  p.ringPicksPerNode = 2;
  const Csr a = block_ring(p, 13);
  bool crossBlock = false;
  for (idx_t i = 0; i < a.num_rows() && !crossBlock; ++i) {
    for (idx_t j : a.row_cols(i)) {
      if (i / 16 != j / 16) crossBlock = true;
    }
  }
  EXPECT_TRUE(crossBlock);
}

TEST(Generators, RandomSquareShape) {
  const Csr a = random_square(300, 8, 21);
  EXPECT_EQ(a.num_rows(), 300);
  EXPECT_EQ(a.num_diag_entries(), 300);
  const MatrixStats s = compute_stats(a);
  EXPECT_LE(s.maxPerRow, 8);
  EXPECT_GE(s.avgPerRow, 6.0);  // some duplicate draws collapse
}

TEST(Generators, BandedShape) {
  const Csr a = banded(10, 2);
  EXPECT_EQ(a.row_size(0), 3);
  EXPECT_EQ(a.row_size(5), 5);
  EXPECT_EQ(a.nnz(), 10 * 5 - 2 * (2 + 1));
}

TEST(Generators, IdentityAndDense) {
  EXPECT_EQ(identity(5).nnz(), 5);
  EXPECT_EQ(dense_square(6).nnz(), 36);
}

TEST(Generators, RejectBadParameters) {
  EXPECT_THROW(stencil2d(0, 3), std::invalid_argument);
  EXPECT_THROW(stencil3d(2, 2, 2, 1.5, 1), std::invalid_argument);
  EXPECT_THROW(random_square(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(dense_square(100000), std::invalid_argument);
  SkewedParams p;
  p.n = 10;
  p.targetNnz = 100;
  p.maxColDegree = 10;  // must be < n
  EXPECT_THROW(skewed_square(p, 1), std::invalid_argument);
}

// --------------------------------------------------------- testsuite ----

TEST(TestSuite, HasFourteenEntriesInPaperOrder) {
  const auto& s = suite();
  ASSERT_EQ(s.size(), 14u);
  EXPECT_EQ(s.front().name, "sherman3");
  EXPECT_EQ(s.back().name, "finan512");
  // Paper lists matrices by increasing nonzero count.
  for (std::size_t i = 1; i < s.size(); ++i)
    EXPECT_LE(s[i - 1].paper.nnz, s[i].paper.nnz);
}

TEST(TestSuite, LookupThrowsOnUnknown) {
  EXPECT_THROW(suite_entry("not-a-matrix"), std::invalid_argument);
  EXPECT_THROW(make_matrix("not-a-matrix"), std::invalid_argument);
  EXPECT_THROW(make_matrix("sherman3", 1, 0.0), std::invalid_argument);
  EXPECT_THROW(make_matrix("sherman3", 1, 1.5), std::invalid_argument);
}

TEST(TestSuite, Deterministic) {
  EXPECT_EQ(make_matrix("sherman3", 4), make_matrix("sherman3", 4));
  EXPECT_NE(make_matrix("cq9", 4, 0.2), make_matrix("cq9", 5, 0.2));
}

TEST(TestSuite, ScaleShrinksProportionally) {
  const Csr full = make_matrix("ken-11", 1, 1.0);
  const Csr half = make_matrix("ken-11", 1, 0.5);
  EXPECT_NEAR(static_cast<double>(half.num_rows()),
              0.5 * static_cast<double>(full.num_rows()), 10.0);
  EXPECT_LT(half.nnz(), full.nnz());
}

class SuiteFidelity : public ::testing::TestWithParam<SuiteEntry> {};

TEST_P(SuiteFidelity, MatchesTable1Statistics) {
  const SuiteEntry& e = GetParam();
  // finan512 / world / mod2 are large; a reduced scale keeps the test fast
  // while full scale is exercised by bench_table1.
  const double scale = e.paper.nnz > 300000 ? 0.25 : 1.0;
  const Csr a = make_matrix(e.name, 1, scale);
  const MatrixStats s = compute_stats(a);

  EXPECT_EQ(a.num_rows(), a.num_cols());
  if (scale == 1.0) {
    EXPECT_NEAR(static_cast<double>(a.num_rows()),
                static_cast<double>(e.paper.rows), 5.0);
    EXPECT_NEAR(static_cast<double>(a.nnz()), static_cast<double>(e.paper.nnz),
                0.15 * static_cast<double>(e.paper.nnz));
    EXPECT_NEAR(s.avgPerRowCol, e.paper.avgPerRowCol, 0.2 * e.paper.avgPerRowCol + 0.5);
    // Heavy tail materialized within a factor ~2.
    EXPECT_GE(static_cast<double>(s.maxPerRowCol),
              0.45 * static_cast<double>(e.paper.maxPerRowCol));
    EXPECT_LE(static_cast<double>(s.maxPerRowCol),
              2.2 * static_cast<double>(e.paper.maxPerRowCol));
  } else {
    // Scaled analog: average degree is preserved.
    EXPECT_NEAR(s.avgPerRowCol, e.paper.avgPerRowCol, 0.25 * e.paper.avgPerRowCol + 0.5);
  }
  if (e.symmetric) {
    EXPECT_TRUE(s.structurallySymmetric);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, SuiteFidelity, ::testing::ValuesIn(suite()),
                         [](const ::testing::TestParamInfo<SuiteEntry>& paramInfo) {
                           std::string n = paramInfo.param.name;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

}  // namespace
}  // namespace fghp::sparse
