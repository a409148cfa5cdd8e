// Task-parallel recursive bisection: identical partitions at every thread
// count (DESIGN.md invariant 7), and balance + cut-net-splitting telescoping
// (invariants 4 and 2) at non-power-of-two K, where the llround side targets
// of recursive.cpp and the uniform-average cap of hg::is_balanced must agree.
//
// These tests force deep task forking (tiny minParallelVertices) and real
// worker threads (numThreads up to 8) — scripts/check.sh also runs them
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/gmetrics.hpp"
#include "hypergraph/metrics.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "partition/gp/gpartitioner.hpp"
#include "partition/gp/grecursive.hpp"
#include "partition/hg/partitioner.hpp"
#include "partition/hg/recursive.hpp"
#include "sparse/testsuite.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace fghp {
namespace {

part::PartitionConfig config_with_threads(idx_t threads) {
  part::PartitionConfig cfg;
  cfg.seed = 7;
  cfg.numThreads = threads;
  cfg.minParallelVertices = 32;  // fork aggressively so small instances cover the pool
  return cfg;
}

class ParallelRbTest : public ::testing::Test {
 protected:
  static const hg::Hypergraph& finegrain_hypergraph() {
    static const model::FineGrainModel m =
        model::build_finegrain(sparse::make_matrix("sherman3", 1, 0.3));
    return m.h;
  }
};

TEST_F(ParallelRbTest, HypergraphPartitionIdenticalAcrossThreadCounts) {
  const hg::Hypergraph& h = finegrain_hypergraph();
  std::vector<idx_t> reference;
  for (idx_t threads : {1, 2, 8}) {
    const part::PartitionConfig cfg = config_with_threads(threads);
    const part::HgResult r = part::partition_hypergraph(h, 16, cfg);
    if (reference.empty()) {
      reference = r.partition.assignment();
    } else {
      EXPECT_EQ(r.partition.assignment(), reference) << "threads=" << threads;
    }
  }
}

TEST_F(ParallelRbTest, RawRecursiveBisectionIdenticalAcrossThreadCounts) {
  const hg::Hypergraph& h = finegrain_hypergraph();
  std::vector<idx_t> reference;
  weight_t referenceCut = 0;
  for (idx_t threads : {1, 2, 8}) {
    const part::PartitionConfig cfg = config_with_threads(threads);
    Rng rng(cfg.seed);
    const part::hgrb::RecursiveResult rb = part::hgrb::partition_recursive(h, 16, cfg, rng);
    if (reference.empty()) {
      reference = rb.partition.assignment();
      referenceCut = rb.sumOfBisectionCuts;
    } else {
      EXPECT_EQ(rb.partition.assignment(), reference) << "threads=" << threads;
      EXPECT_EQ(rb.sumOfBisectionCuts, referenceCut) << "threads=" << threads;
    }
  }
}

TEST_F(ParallelRbTest, GraphPartitionIdenticalAcrossThreadCounts) {
  const gp::Graph g = model::build_standard_graph(sparse::make_matrix("sherman3", 1, 0.3));
  std::vector<idx_t> reference;
  for (idx_t threads : {1, 2, 8}) {
    const part::PartitionConfig cfg = config_with_threads(threads);
    const part::GpResult r = part::partition_graph(g, 16, cfg);
    if (reference.empty()) {
      reference = r.partition.assignment();
    } else {
      EXPECT_EQ(r.partition.assignment(), reference) << "threads=" << threads;
    }
  }
}

TEST_F(ParallelRbTest, OddKTelescopingAtEveryThreadCount) {
  const hg::Hypergraph& h = finegrain_hypergraph();
  for (idx_t K : {3, 5, 7}) {
    std::vector<idx_t> reference;
    for (idx_t threads : {1, 2, 4, 8}) {
      part::PartitionConfig cfg = config_with_threads(threads);
      cfg.seed = 3;
      Rng rng(cfg.seed);
      const part::hgrb::RecursiveResult rb =
          part::hgrb::partition_recursive(h, K, cfg, rng);
      ASSERT_TRUE(rb.partition.complete());
      // Invariant 2: per-level cut costs telescope to the K-way cutsize.
      EXPECT_EQ(rb.sumOfBisectionCuts,
                hg::cutsize(h, rb.partition, hg::CutMetric::kConnectivity))
          << "K=" << K << " threads=" << threads;
      if (reference.empty()) {
        reference = rb.partition.assignment();
      } else {
        EXPECT_EQ(rb.partition.assignment(), reference)
            << "K=" << K << " threads=" << threads;
      }
    }
  }
}

TEST_F(ParallelRbTest, OddKPartitionerOutputBalanced) {
  const hg::Hypergraph& h = finegrain_hypergraph();
  for (idx_t K : {3, 5, 7}) {
    for (idx_t threads : {1, 2, 4, 8}) {
      part::PartitionConfig cfg = config_with_threads(threads);
      cfg.seed = 11;
      const part::HgResult r = part::partition_hypergraph(h, K, cfg);
      // Invariant 4: the llround side targets and the uniform-average cap of
      // is_balanced must agree even when K does not split evenly.
      EXPECT_TRUE(hg::is_balanced(h, r.partition, cfg.epsilon))
          << "K=" << K << " threads=" << threads
          << " imbalance=" << hg::imbalance(h, r.partition);
    }
  }
}

TEST_F(ParallelRbTest, OddKGraphPartitionBalanced) {
  const gp::Graph g = model::build_standard_graph(sparse::make_matrix("sherman3", 1, 0.3));
  for (idx_t K : {3, 5, 7}) {
    const part::PartitionConfig cfg = config_with_threads(4);
    const part::GpResult r = part::partition_graph(g, K, cfg);
    EXPECT_LE(r.imbalance, cfg.epsilon + 1e-9) << "K=" << K;
  }
}

TEST_F(ParallelRbTest, GenerousDeadlineBitIdenticalToNoDeadline) {
  // An active-but-ample deadline must not perturb a single decision: the
  // ladder only changes behavior once remaining budget actually runs short.
  const hg::Hypergraph& h = finegrain_hypergraph();
  const part::PartitionConfig plain = config_with_threads(1);
  const part::HgResult ref = part::partition_hypergraph(h, 16, plain);
  for (idx_t threads : {1, 2, 8}) {
    part::PartitionConfig cfg = config_with_threads(threads);
    cfg.cancel = cancel::CancelToken::with_deadline_ms(3'600'000);  // one hour
    const part::HgResult r = part::partition_hypergraph(h, 16, cfg);
    EXPECT_EQ(r.partition.assignment(), ref.partition.assignment())
        << "threads=" << threads;
    EXPECT_EQ(r.numDegraded, 0) << "threads=" << threads;
  }
}

TEST_F(ParallelRbTest, InjectedCancelSameTypedErrorAtEveryThreadCount) {
  // A simulated cancellation at a fixed RB node must surface as the same
  // typed error at any thread count — the ordinal identifies the logical
  // node, not a scheduling accident, and the fork-join rethrow (possibly via
  // AggregateError) must preserve the code and the phase context.
  const hg::Hypergraph& h = finegrain_hypergraph();
  for (idx_t threads : {1, 2, 8}) {
    part::PartitionConfig cfg = config_with_threads(threads);
    cfg.faultSpec = "cancel.rb.node:3";
    try {
      part::partition_hypergraph(h, 16, cfg);
      FAIL() << "expected CancelledError at threads=" << threads;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled) << "threads=" << threads;
      EXPECT_EQ(e.context().phase, "rb.node") << "threads=" << threads;
    }
    drain_warnings();
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, 257, [&](long i) { hits[static_cast<std::size_t>(i)] += 1; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexAndRethrows) {
  // Every index runs even when some throw; one exception is rethrown as
  // is, several as an AggregateError — the TaskGroup::wait rule.
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::atomic<int>> hits(16);
    EXPECT_THROW(parallel_for(pool, 16,
                              [&](long i) {
                                hits[static_cast<std::size_t>(i)] += 1;
                                if (i == 5) throw std::runtime_error("one");
                              }),
                 std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_THROW(parallel_for(pool, 16,
                              [&](long i) {
                                if (i % 4 == 0) throw std::runtime_error("several");
                              }),
                 AggregateError);
  }
}

TEST(ThreadPoolTest, AlternatingSizesRunEachIndexOncePerCall) {
  // Back-to-back calls of different sizes: a worker that read one call's
  // generation late must not claim an index of the next call under it, so
  // every index runs exactly once and none runs after its call returned.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (int round = 0; round < 50000; ++round) {
    const long n = round % 2 == 0 ? 2 : 64;
    parallel_for(pool, n, [&](long i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (long i = 0; i < 64; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].exchange(0), i < n ? 1 : 0)
          << "round " << round << " index " << i;
  }
}

TEST(ThreadPoolTest, NestedAndConcurrentParallelForDoNotDeadlock) {
  // A call made while another owns the team runs inline on its caller,
  // whether it is nested inside an index or comes from a second thread.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  auto outer = [&] {
    for (int round = 0; round < 50; ++round)
      parallel_for(pool, 8, [&](long i) {
        parallel_for(pool, 8, [&](long j) { sum += i * 8 + j; });
      });
  };
  std::thread other(outer);
  outer();
  other.join();
  EXPECT_EQ(sum.load(), 2L * 50 * (64 * 63 / 2));
}

TEST(ThreadPoolTest, NestedGroupsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  // A fork-join tree 6 levels deep on a 2-thread pool: waiting tasks must
  // help execute queued work or this would deadlock.
  std::function<void(int)> tree = [&](int depth) {
    if (depth == 0) {
      leaves += 1;
      return;
    }
    TaskGroup group(pool);
    group.run([&, depth] { tree(depth - 1); });
    tree(depth - 1);
    group.wait();
  };
  tree(6);
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolTest, TaskExceptionPropagatesFromWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsTasksInWait) {
  ThreadPool pool(1);  // no workers: the waiting thread must drain the queue
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) group.run([&] { ran += 1; });
  group.wait();
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace fghp
