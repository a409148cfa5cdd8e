// Characterization ("golden") tests for the recursive-bisection stacks.
//
// These pin the exact partitions produced by the hypergraph and graph
// multilevel engines for fixed (generator matrix, seed, K, config), as an
// FNV-1a hash of the assignment vector plus the cutsize, at 1, 2 and 8
// threads. They are the safety net for refactors of the RB orchestration:
// any change to the traversal order, RNG stream derivation, recovery ladder
// or extraction logic shows up as a hash mismatch here. A second table pins
// the whole decompositions of the 1D hypergraph models and the geometric fast
// paths, which share the partitioner code.
//
// Regenerating: FGHP_GOLDEN_PRINT=1 ./test_rb_golden prints the current
// signatures of both tables in the exact form below. Only paste new values
// when an output change is *intended* — this file exists to make silent
// drift loud.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/gmetrics.hpp"
#include "hypergraph/metrics.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "models/jagged.hpp"
#include "models/orthogonal.hpp"
#include "partition/gp/gpartitioner.hpp"
#include "partition/gp/grecursive.hpp"
#include "partition/hg/partitioner.hpp"
#include "partition/hg/recursive.hpp"
#include "sparse/generators.hpp"
#include "sparse/testsuite.hpp"
#include "util/assert.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace fghp {
namespace {

std::uint64_t fnv1a(const std::vector<idx_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (idx_t x : v) {
    auto u = static_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Signature of one partitioner run: assignment hash + objective value.
struct Sig {
  std::uint64_t hash = 0;
  long long cut = 0;

  bool operator==(const Sig&) const = default;
};

part::PartitionConfig golden_config(idx_t threads) {
  part::PartitionConfig cfg;
  cfg.seed = 42;
  cfg.numThreads = threads;
  // Low enough that the fork-join path is exercised on the small golden
  // instances, so the thread sweep actually schedules tasks.
  cfg.minParallelVertices = 64;
  return cfg;
}

// The two generator instances the goldens are pinned on: a structured mesh
// and an irregular random pattern. Deterministic in their parameters.
sparse::Csr mesh_matrix() { return sparse::stencil2d(20, 20); }
sparse::Csr irregular_matrix() { return sparse::random_square(250, 5, 13); }

Sig run_hg_rb(const sparse::Csr& a, idx_t K, idx_t threads) {
  const model::FineGrainModel m = model::build_finegrain(a);
  const part::PartitionConfig cfg = golden_config(threads);
  Rng rng(cfg.seed);
  const part::hgrb::RecursiveResult r = part::hgrb::partition_recursive(m.h, K, cfg, rng);
  return {fnv1a(r.partition.assignment()), static_cast<long long>(r.sumOfBisectionCuts)};
}

Sig run_gp_rb(const sparse::Csr& a, idx_t K, idx_t threads) {
  const gp::Graph g = model::build_standard_graph(a);
  const part::PartitionConfig cfg = golden_config(threads);
  Rng rng(cfg.seed);
  const part::gprb::GRecursiveResult r = part::gprb::partition_graph_recursive(g, K, cfg, rng);
  return {fnv1a(r.partition.assignment()), static_cast<long long>(r.sumOfBisectionCuts)};
}

Sig run_hg_facade(const sparse::Csr& a, idx_t K, idx_t threads) {
  const model::FineGrainModel m = model::build_finegrain(a);
  const part::HgResult r = part::partition_hypergraph(m.h, K, golden_config(threads));
  return {fnv1a(r.partition.assignment()), static_cast<long long>(r.cutsize)};
}

Sig run_gp_facade(const sparse::Csr& a, idx_t K, idx_t threads) {
  const gp::Graph g = model::build_standard_graph(a);
  const part::GpResult r = part::partition_graph(g, K, golden_config(threads));
  return {fnv1a(r.partition.assignment()), static_cast<long long>(r.edgeCut)};
}

struct Case {
  const char* engine;  // "hg.rb", "gp.rb", "hg.part", "gp.part"
  const char* matrix;  // "mesh", "irregular"
  idx_t K;
  Sig expected;        // at every thread count (thread-count independence)
};

// Golden signatures captured from the pre-unification stacks (PR 2 state);
// the unified engine must reproduce them bit-identically.
const Case kGolden[] = {
    {"hg.rb", "mesh", 4, {0xbd4997befafc43c2ULL, 77}},
    {"hg.rb", "mesh", 8, {0x590f9b2cf4bc0266ULL, 157}},
    {"hg.rb", "irregular", 4, {0x3524b624bd83cd81ULL, 251}},
    {"hg.rb", "irregular", 8, {0x62483d94beb3ae24ULL, 379}},
    {"gp.rb", "mesh", 4, {0x9f6b343a55339100ULL, 86}},
    {"gp.rb", "mesh", 8, {0xf927a62b0de53fe7ULL, 176}},
    {"gp.rb", "irregular", 4, {0x845c400907ac7862ULL, 416}},
    {"gp.rb", "irregular", 8, {0x8d485eeda0070be1ULL, 546}},
    {"hg.part", "mesh", 4, {0xbd4997befafc43c2ULL, 77}},
    {"hg.part", "mesh", 8, {0xdeb278007a3a5dc5ULL, 154}},
    {"hg.part", "irregular", 4, {0x7e6e470547c66841ULL, 249}},
    {"hg.part", "irregular", 8, {0x741e371ed389a664ULL, 377}},
    {"gp.part", "mesh", 4, {0x6a1395e9c234ed23ULL, 84}},
    {"gp.part", "mesh", 8, {0x09caaa2e3a37bce5ULL, 172}},
    {"gp.part", "irregular", 4, {0x17ed08dc9fc584a0ULL, 414}},
    {"gp.part", "irregular", 8, {0x27ff2bda60b49b62ULL, 545}},
};

Sig run_case(const Case& c, idx_t threads) {
  const sparse::Csr a =
      std::string(c.matrix) == "mesh" ? mesh_matrix() : irregular_matrix();
  const std::string engine = c.engine;
  if (engine == "hg.rb") return run_hg_rb(a, c.K, threads);
  if (engine == "gp.rb") return run_gp_rb(a, c.K, threads);
  if (engine == "hg.part") return run_hg_facade(a, c.K, threads);
  return run_gp_facade(a, c.K, threads);
}

class RbGoldenSweep : public ::testing::TestWithParam<idx_t> {};

TEST_P(RbGoldenSweep, PinnedAtEveryThreadCount) {
  const idx_t threads = GetParam();
  for (const Case& c : kGolden) {
    const Sig s = run_case(c, threads);
    EXPECT_EQ(s.hash, c.expected.hash)
        << c.engine << " " << c.matrix << " K=" << c.K << " threads=" << threads;
    EXPECT_EQ(s.cut, c.expected.cut)
        << c.engine << " " << c.matrix << " K=" << c.K << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RbGoldenSweep, ::testing::Values(1, 2, 8));

// Whole decompositions of the other model pipelines that share the
// partitioner code: the column-net and row-net 1D hypergraph models, the
// jagged and orthogonal 2D models built on them, and the two geometric fast
// paths of the fine-grain model. The hash covers the nonzero, x and y owners
// in that order; `cut` is the run's objective. The cq9 analog has missing
// diagonals but no empty row or column, so its rows pin where the
// consistency pin sits in each net.
struct ModelCase {
  const char* model;   // "colnet", "rownet", "jagged", "orthogonal", "geometric", "geometric-fm"
  const char* matrix;  // "mesh", "irregular", "cq9"
  idx_t K;
  Sig expected;  // at every thread count
};

const ModelCase kModelGolden[] = {
    {"colnet", "mesh", 4, {0x00b86afc30869e83ULL, 79}},
    {"colnet", "mesh", 8, {0x5bd15e508dc71042ULL, 154}},
    {"colnet", "irregular", 4, {0x12f58a319877dc22ULL, 267}},
    {"colnet", "irregular", 8, {0xac0b79fece66ed46ULL, 393}},
    {"rownet", "mesh", 4, {0x4deed29d10bd07c3ULL, 79}},
    {"rownet", "mesh", 8, {0xc79d3dd07cc13522ULL, 154}},
    {"rownet", "irregular", 4, {0x8f10f93232ba56a1ULL, 303}},
    {"rownet", "irregular", 8, {0x3ba16f152555bac5ULL, 442}},
    {"geometric", "mesh", 4, {0x6b7c57d3e054c8c3ULL, 120}},
    {"geometric", "mesh", 8, {0x15e11cefe9322e83ULL, 280}},
    {"geometric", "irregular", 4, {0x204bf894217de940ULL, 445}},
    {"geometric", "irregular", 8, {0x376043dafeef1084ULL, 711}},
    {"geometric-fm", "mesh", 4, {0x6b7c57d3e054c8c3ULL, 120}},
    {"geometric-fm", "mesh", 8, {0x15e11cefe9322e83ULL, 280}},
    {"geometric-fm", "irregular", 4, {0x01967889ff3fda42ULL, 434}},
    {"geometric-fm", "irregular", 8, {0xe0aff392dafbee84ULL, 681}},
    {"jagged", "mesh", 4, {0x09766185e7684502ULL, 0}},
    {"jagged", "mesh", 8, {0x95d6d1f928151423ULL, 0}},
    {"jagged", "irregular", 4, {0x57bd4d26952c12c2ULL, 0}},
    {"jagged", "irregular", 8, {0x4d21e1be7795d0c1ULL, 0}},
    {"orthogonal", "mesh", 4, {0x127b06c509708be3ULL, 0}},
    {"orthogonal", "mesh", 8, {0x5415d4283f19d643ULL, 0}},
    {"orthogonal", "irregular", 4, {0x8943caa56510f183ULL, 0}},
    {"orthogonal", "irregular", 8, {0x298a45da9051d2a1ULL, 0}},
    {"colnet", "cq9", 4, {0xbd62c160f7c55201ULL, 926}},
    {"colnet", "cq9", 8, {0xa7119796bf5bd166ULL, 1848}},
    {"rownet", "cq9", 4, {0x928d25473bd3b2a1ULL, 1007}},
    {"rownet", "cq9", 8, {0x9f94e6fd6ee22702ULL, 2127}},
    {"jagged", "cq9", 4, {0x73643d460ba494a2ULL, 0}},
    {"jagged", "cq9", 8, {0x8f4b40c386d7ec62ULL, 0}},
    {"orthogonal", "cq9", 4, {0x4010f056c80fc762ULL, 0}},
    {"orthogonal", "cq9", 8, {0xf53357b26980c0a1ULL, 0}},
};

sparse::Csr model_matrix(const std::string& name) {
  if (name == "mesh") return mesh_matrix();
  if (name == "irregular") return irregular_matrix();
  return sparse::make_matrix(name, 1, 0.1);  // suite analog at scale 0.1
}

Sig run_model_case(const ModelCase& c, idx_t threads) {
  const sparse::Csr a = model_matrix(c.matrix);
  part::PartitionConfig cfg = golden_config(threads);
  const std::string model = c.model;
  model::ModelRun r;
  if (model == "colnet") {
    r = model::run_hypergraph1d(a, c.K, cfg, model::Line::kRow);
  } else if (model == "rownet") {
    r = model::run_hypergraph1d(a, c.K, cfg, model::Line::kCol);
  } else if (model == "jagged") {
    r = model::run_jagged_k(a, c.K, cfg);
  } else if (model == "orthogonal") {
    r = model::run_orthogonal_k(a, c.K, cfg);
  } else {
    FGHP_REQUIRE(part::parse_method(model, cfg.method), "unknown golden model");
    r = model::run_finegrain(a, c.K, cfg);
  }
  std::vector<idx_t> owners = r.decomp.nnzOwner;
  owners.insert(owners.end(), r.decomp.xOwner.begin(), r.decomp.xOwner.end());
  owners.insert(owners.end(), r.decomp.yOwner.begin(), r.decomp.yOwner.end());
  return {fnv1a(owners), static_cast<long long>(r.objective)};
}

TEST(RbGolden, PrintCurrentSignatures) {
  if (!env_flag("FGHP_GOLDEN_PRINT")) GTEST_SKIP() << "set FGHP_GOLDEN_PRINT=1 to print";
  for (const Case& c : kGolden) {
    const Sig s = run_case(c, 1);
    std::printf("    {\"%s\", \"%s\", %d, {0x%016llxULL, %lld}},\n", c.engine, c.matrix,
                static_cast<int>(c.K), static_cast<unsigned long long>(s.hash), s.cut);
  }
  std::printf("\n");
  for (const ModelCase& c : kModelGolden) {
    const Sig s = run_model_case(c, 1);
    std::printf("    {\"%s\", \"%s\", %d, {0x%016llxULL, %lld}},\n", c.model, c.matrix,
                static_cast<int>(c.K), static_cast<unsigned long long>(s.hash), s.cut);
  }
}

class ModelGoldenSweep : public ::testing::TestWithParam<idx_t> {};

TEST_P(ModelGoldenSweep, PinnedAtEveryThreadCount) {
  const idx_t threads = GetParam();
  for (const ModelCase& c : kModelGolden) {
    const Sig s = run_model_case(c, threads);
    EXPECT_EQ(s.hash, c.expected.hash)
        << c.model << " " << c.matrix << " K=" << c.K << " threads=" << threads;
    EXPECT_EQ(s.cut, c.expected.cut)
        << c.model << " " << c.matrix << " K=" << c.K << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ModelGoldenSweep, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace fghp
