// The fast-path fine-grain partitioner (DESIGN.md §15): geometric recursive
// splits. Covers the determinism contract (bit-identical at any thread
// count), the telescoped-cut equivalence against the real hypergraph's
// lambda-1, balance feasibility at odd K, the fault-injection recovery
// ladder at the geo.* sites, deadline degradation, manual cancellation
// honored mid-split, and the --method name round trip.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "hypergraph/metrics.hpp"
#include "models/finegrain.hpp"
#include "partition/geo/geometric.hpp"
#include "partition/geo/points.hpp"
#include "partition/geo/split.hpp"
#include "partition/hg/partitioner.hpp"
#include "sparse/testsuite.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fghp {
namespace {

using part::geo::GeoPoints;
using part::geo::GeoResult;

part::PartitionConfig config_with_threads(idx_t threads) {
  part::PartitionConfig cfg;
  cfg.seed = 7;
  cfg.numThreads = threads;
  cfg.minParallelVertices = 32;  // fork aggressively so small instances cover the pool
  cfg.validateLevel = part::ValidateLevel::kStrict;
  return cfg;
}

class FastPartTest : public ::testing::Test {
 protected:
  /// A stencil matrix: spatially coherent, no heavy lines (no scatter peel).
  static const model::FineGrainPoints& stencil() {
    static const model::FineGrainPoints m =
        model::build_finegrain_points(sparse::make_matrix("sherman3", 1, 0.3));
    return m;
  }
  /// A hub-structured matrix (scaled finan512): exercises the scatter peel.
  static const model::FineGrainPoints& hubs() {
    static const model::FineGrainPoints m =
        model::build_finegrain_points(sparse::make_matrix("finan512", 1, 0.05));
    return m;
  }
  static const hg::Hypergraph& stencil_hypergraph() {
    static const model::FineGrainModel m =
        model::build_finegrain(sparse::make_matrix("sherman3", 1, 0.3));
    return m.h;
  }
  static const hg::Hypergraph& hubs_hypergraph() {
    static const model::FineGrainModel m =
        model::build_finegrain(sparse::make_matrix("finan512", 1, 0.05));
    return m.h;
  }
};

// ------------------------------------------------------- determinism ----

TEST_F(FastPartTest, GeometricIdenticalAcrossThreadCounts) {
  for (const model::FineGrainPoints* m : {&stencil(), &hubs()}) {
    std::vector<idx_t> reference;
    for (idx_t threads : {1, 2, 8}) {
      const GeoResult r =
          part::geo::partition_points_geometric(m->pts, 8, config_with_threads(threads));
      if (reference.empty()) reference = r.partition.assignment();
      EXPECT_EQ(r.partition.assignment(), reference) << "threads=" << threads;
    }
  }
}

TEST_F(FastPartTest, RepeatedRunsAreBitIdentical) {
  const part::PartitionConfig cfg = config_with_threads(4);
  const GeoResult g1 = part::geo::partition_points_geometric(hubs().pts, 6, cfg);
  const GeoResult g2 = part::geo::partition_points_geometric(hubs().pts, 6, cfg);
  EXPECT_EQ(g1.partition.assignment(), g2.partition.assignment());
  EXPECT_EQ(g1.cutsize, g2.cutsize);
}

// ------------------------------------------- cut == hypergraph lambda-1 ----

TEST_F(FastPartTest, GeometricCutEqualsHypergraphCutsize) {
  // The point-cloud cut (telescoped bisection cuts on the no-peel path,
  // recomputed connectivity on the peel path) must equal the lambda-1
  // connectivity cutsize of the same assignment on the REAL fine-grain
  // hypergraph — point ids match hypergraph vertex ids by construction.
  const struct {
    const model::FineGrainPoints* m;
    const hg::Hypergraph* h;
  } cases[] = {{&stencil(), &stencil_hypergraph()}, {&hubs(), &hubs_hypergraph()}};
  for (const auto& c : cases) {
    const GeoResult r =
        part::geo::partition_points_geometric(c.m->pts, 8, config_with_threads(2));
    const hg::Partition p(*c.h, 8, std::vector<idx_t>(r.partition.assignment()));
    EXPECT_EQ(r.cutsize, hg::cutsize(*c.h, p, hg::CutMetric::kConnectivity));
  }
}

// --------------------------------------------------- balance at odd K ----

TEST_F(FastPartTest, BalanceFeasibleAtOddK) {
  for (idx_t K : {3, 5, 7, 13}) {
    const part::PartitionConfig cfg = config_with_threads(2);
    const weight_t cap =
        hg::balance_cap(stencil().pts.total_vertex_weight(), K, cfg.epsilon);
    const GeoResult g = part::geo::partition_points_geometric(stencil().pts, K, cfg);
    for (idx_t k = 0; k < K; ++k)
      EXPECT_LE(g.partition.part_weight(k), cap) << "geometric K=" << K << " part " << k;
  }
}

// ------------------------------------------------------ fault recovery ----

TEST_F(FastPartTest, GeometricRecoversFromSplitFault) {
  part::PartitionConfig cfg = config_with_threads(1);
  cfg.faultSpec = "geo.split:1";  // root bisection faults once, retry succeeds
  const GeoResult r = part::geo::partition_points_geometric(stencil().pts, 4, cfg);
  EXPECT_GE(r.numRecoveries, 1);
  EXPECT_TRUE(r.partition.complete());
  drain_warnings();
}

TEST_F(FastPartTest, GeometricFaultRecoveryIsThreadCountIndependent) {
  std::vector<idx_t> reference;
  for (idx_t threads : {1, 2, 8}) {
    part::PartitionConfig cfg = config_with_threads(threads);
    cfg.faultSpec = "geo.split,geo.retry";  // every attempt faults -> greedy fallback
    const GeoResult r = part::geo::partition_points_geometric(stencil().pts, 4, cfg);
    EXPECT_GE(r.numRecoveries, 1);
    if (reference.empty()) reference = r.partition.assignment();
    EXPECT_EQ(r.partition.assignment(), reference) << "threads=" << threads;
  }
  drain_warnings();
}

// ------------------------------------------------- cancel and deadline ----

TEST_F(FastPartTest, ManualCancelIsHonoredMidSplit) {
  // The check-point inside median_split's sweep observes a cancel that was
  // requested before the split started — no facade entry point shields it.
  const cancel::CancelToken token = cancel::CancelToken::manual();
  token.cancel();
  part::PartitionConfig cfg = config_with_threads(1);
  cfg.cancel = token;
  const GeoPoints& pts = stencil().pts;
  const std::array<weight_t, 2> target = {pts.total_vertex_weight() / 2,
                                          pts.total_vertex_weight() -
                                              pts.total_vertex_weight() / 2};
  const std::array<weight_t, 2> cap = target;
  Rng rng(7);
  EXPECT_THROW(part::geo::median_split(pts, target, cap, cfg, rng), CancelledError);
}

TEST_F(FastPartTest, ExpiredDeadlineThrowsMidSplitForTheEngineToCatch) {
  // Inside the split an expired deadline always throws (deadlineThrows);
  // the RB engine catches it and degrades the node to the greedy split.
  part::PartitionConfig cfg = config_with_threads(1);
  cfg.cancel = cancel::CancelToken::with_deadline_ms(0);
  const GeoPoints& pts = stencil().pts;
  const std::array<weight_t, 2> target = {pts.total_vertex_weight() / 2,
                                          pts.total_vertex_weight() -
                                              pts.total_vertex_weight() / 2};
  Rng rng(7);
  EXPECT_THROW(part::geo::median_split(pts, target, target, cfg, rng),
               DeadlineExceededError);
}

TEST_F(FastPartTest, GeometricDeadlineDegradesToValidPartition) {
  part::PartitionConfig cfg = config_with_threads(2);
  cfg.cancel = cancel::CancelToken::with_deadline_ms(0);
  const GeoResult r = part::geo::partition_points_geometric(stencil().pts, 8, cfg);
  EXPECT_GE(r.numDegraded, 1);
  EXPECT_TRUE(r.partition.complete());
  drain_warnings();
}

TEST_F(FastPartTest, GeometricDeadlineThrowsWithoutDegradation) {
  part::PartitionConfig cfg = config_with_threads(2);
  cfg.cancel = cancel::CancelToken::with_deadline_ms(0);
  cfg.degradeOnDeadline = false;
  EXPECT_THROW(part::geo::partition_points_geometric(stencil().pts, 8, cfg),
               DeadlineExceededError);
  drain_warnings();
}

// ------------------------------------------------------ method dispatch ----

TEST_F(FastPartTest, RunFinegrainDispatchesOnMethod) {
  const sparse::Csr a = sparse::make_matrix("sherman3", 1, 0.2);
  for (part::PartitionMethod method :
       {part::PartitionMethod::kMultilevel, part::PartitionMethod::kGeometric,
        part::PartitionMethod::kGeometricFm}) {
    part::PartitionConfig cfg;
    cfg.seed = 7;
    cfg.method = method;
    cfg.validateLevel = part::ValidateLevel::kStrict;
    const model::ModelRun run = model::run_finegrain(a, 4, cfg);
    EXPECT_GE(run.objective, 0) << part::method_name(method);
    EXPECT_EQ(run.decomp.numProcs, 4) << part::method_name(method);
    EXPECT_EQ(static_cast<idx_t>(run.decomp.nnzOwner.size()), a.nnz())
        << part::method_name(method);
  }
}

TEST(PartitionMethod, NamesRoundTripAndUnknownNamesAreRejected) {
  for (part::PartitionMethod method :
       {part::PartitionMethod::kMultilevel, part::PartitionMethod::kGeometric,
        part::PartitionMethod::kGeometricFm}) {
    part::PartitionMethod parsed = part::PartitionMethod::kMultilevel;
    ASSERT_TRUE(part::parse_method(part::method_name(method), parsed))
        << part::method_name(method);
    EXPECT_EQ(parsed, method) << part::method_name(method);
  }
  part::PartitionMethod untouched = part::PartitionMethod::kGeometric;
  EXPECT_FALSE(part::parse_method("streaming", untouched));
  EXPECT_FALSE(part::parse_method("spectral", untouched));
  EXPECT_EQ(untouched, part::PartitionMethod::kGeometric);
}

}  // namespace
}  // namespace fghp
