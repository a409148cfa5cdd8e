// Unit tests for util: rng, bucket queue, sparse accumulator, table,
// options.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>

#include "util/bucket_queue.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/sparse_acc.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace fghp {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, UniformCoversInclusiveRange) {
  Rng rng(5);
  std::set<idx_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const idx_t v = rng.uniform(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(11);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double u = rng.uniform01();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(19);
  const auto perm = rng.permutation(257);
  std::vector<idx_t> sorted(perm);
  std::sort(sorted.begin(), sorted.end());
  for (idx_t i = 0; i < 257; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, PermutationZeroAndOne) {
  Rng rng(23);
  EXPECT_TRUE(rng.permutation(0).empty());
  const auto one = rng.permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(29);
  std::vector<int> v{5, 5, 1, 2, 3, 9};
  auto sortedBefore = v;
  std::sort(sortedBefore.begin(), sortedBefore.end());
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sortedBefore);
}

TEST(Rng, SpawnProducesIndependentStream) {
  Rng a(31);
  Rng child = a.spawn();
  // Child should not replay the parent's continuation.
  Rng b(31);
  b.spawn();
  EXPECT_EQ(child.next() != a.next() || child.next() != a.next(), true);
}

// ------------------------------------------------------- BucketQueue ----

TEST(BucketQueue, PushPopSingle) {
  BucketQueue q(10, 5);
  EXPECT_TRUE(q.empty());
  q.push(3, 2);
  EXPECT_FALSE(q.empty());
  EXPECT_TRUE(q.contains(3));
  EXPECT_EQ(q.max_gain(), 2);
  EXPECT_EQ(q.pop_max(), 3);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(3));
}

TEST(BucketQueue, PopsHighestGainFirst) {
  BucketQueue q(10, 10);
  q.push(0, -3);
  q.push(1, 7);
  q.push(2, 0);
  q.push(3, 7);
  const idx_t first = q.pop_max();
  EXPECT_TRUE(first == 1 || first == 3);
  const idx_t second = q.pop_max();
  EXPECT_TRUE(second == 1 || second == 3);
  EXPECT_NE(first, second);
  EXPECT_EQ(q.pop_max(), 2);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, LifoWithinBucket) {
  BucketQueue q(10, 4);
  q.push(5, 1);
  q.push(6, 1);
  q.push(7, 1);
  EXPECT_EQ(q.pop_max(), 7);  // most recently pushed first
  EXPECT_EQ(q.pop_max(), 6);
  EXPECT_EQ(q.pop_max(), 5);
}

TEST(BucketQueue, UpdateMovesBuckets) {
  BucketQueue q(4, 8);
  q.push(0, 1);
  q.push(1, 2);
  q.update(0, 5);
  EXPECT_EQ(q.gain(0), 5);
  EXPECT_EQ(q.pop_max(), 0);
  EXPECT_EQ(q.pop_max(), 1);
}

TEST(BucketQueue, AdjustDelta) {
  BucketQueue q(4, 8);
  q.push(2, -1);
  q.adjust(2, 3);
  EXPECT_EQ(q.gain(2), 2);
  q.adjust(2, -4);
  EXPECT_EQ(q.gain(2), -2);
}

TEST(BucketQueue, RemoveMiddleOfBucket) {
  BucketQueue q(8, 3);
  q.push(0, 0);
  q.push(1, 0);
  q.push(2, 0);
  q.remove(1);
  EXPECT_FALSE(q.contains(1));
  EXPECT_EQ(q.size(), 2);
  EXPECT_EQ(q.pop_max(), 2);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, NegativeGainsOnly) {
  BucketQueue q(4, 6);
  q.push(0, -6);
  q.push(1, -2);
  EXPECT_EQ(q.max_gain(), -2);
  EXPECT_EQ(q.pop_max(), 1);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, ClearKeepsCapacity) {
  BucketQueue q(4, 4);
  q.push(0, 4);
  q.push(1, -4);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(2, 0);
  EXPECT_EQ(q.pop_max(), 2);
}

TEST(BucketQueue, StressAgainstMultiset) {
  Rng rng(37);
  const idx_t n = 200, g = 20;
  BucketQueue q(n, g);
  std::vector<idx_t> gains(n, 0);
  std::vector<bool> in(n, false);
  std::multiset<idx_t> model;
  for (int step = 0; step < 5000; ++step) {
    const idx_t v = rng.uniform(0, n - 1);
    const int op = static_cast<int>(rng.uniform(0, 3));
    if (op == 0 && !in[static_cast<std::size_t>(v)]) {
      const idx_t gain = rng.uniform(-g, g);
      q.push(v, gain);
      gains[static_cast<std::size_t>(v)] = gain;
      in[static_cast<std::size_t>(v)] = true;
      model.insert(gain);
    } else if (op == 1 && in[static_cast<std::size_t>(v)]) {
      q.remove(v);
      model.erase(model.find(gains[static_cast<std::size_t>(v)]));
      in[static_cast<std::size_t>(v)] = false;
    } else if (op == 2 && in[static_cast<std::size_t>(v)]) {
      const idx_t gain = rng.uniform(-g, g);
      model.erase(model.find(gains[static_cast<std::size_t>(v)]));
      q.update(v, gain);
      gains[static_cast<std::size_t>(v)] = gain;
      model.insert(gain);
    } else if (!q.empty()) {
      EXPECT_EQ(q.max_gain(), *model.rbegin());
      const idx_t popped = q.pop_max();
      EXPECT_EQ(gains[static_cast<std::size_t>(popped)], *model.rbegin());
      model.erase(std::prev(model.end()));
      in[static_cast<std::size_t>(popped)] = false;
    }
    EXPECT_EQ(static_cast<std::size_t>(q.size()), model.size());
  }
}

TEST(BucketQueue, GainsAtTheBounds) {
  BucketQueue q(4, 7);
  q.push(0, 7);
  q.push(1, -7);
  EXPECT_EQ(q.max_gain(), 7);
  EXPECT_EQ(q.pop_max(), 0);
  EXPECT_EQ(q.max_gain(), -7);
  EXPECT_EQ(q.pop_max(), 1);
}

TEST(BucketQueue, ResetRedimensions) {
  BucketQueue q(2, 1);
  q.push(0, 1);
  q.reset(6, 10);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(0));
  q.push(5, 10);
  q.push(4, -10);
  EXPECT_EQ(q.pop_max(), 5);
  EXPECT_EQ(q.pop_max(), 4);
}

TEST(BucketQueue, UpdateToSameGainIsNoOp) {
  BucketQueue q(3, 4);
  q.push(0, 2);
  q.push(1, 2);
  q.update(1, 2);  // same gain: must keep LIFO position
  EXPECT_EQ(q.pop_max(), 1);
  EXPECT_EQ(q.pop_max(), 0);
}

TEST(BucketQueue, SizeTracksPushesAndPops) {
  BucketQueue q(8, 3);
  EXPECT_EQ(q.size(), 0);
  for (idx_t v = 0; v < 8; ++v) q.push(v, static_cast<idx_t>(v % 3));
  EXPECT_EQ(q.size(), 8);
  q.remove(3);
  q.pop_max();
  EXPECT_EQ(q.size(), 6);
}

// -------------------------------------------------- SparseAccumulator ----

TEST(SparseAccumulator, AccumulatesAndClears) {
  SparseAccumulator<weight_t> acc(10);
  acc.add(3, 2);
  acc.add(3, 5);
  acc.add(7, 1);
  EXPECT_EQ(acc.value(3), 7);
  EXPECT_EQ(acc.value(7), 1);
  EXPECT_EQ(acc.value(0), 0);
  EXPECT_TRUE(acc.touched(3));
  EXPECT_FALSE(acc.touched(0));
  EXPECT_EQ(acc.keys().size(), 2u);
  acc.clear();
  EXPECT_TRUE(acc.keys().empty());
  EXPECT_EQ(acc.value(3), 0);
}

TEST(SparseAccumulator, StaleValuesInvisibleAfterClear) {
  SparseAccumulator<double> acc(4);
  acc.add(1, 3.5);
  acc.clear();
  acc.add(1, 1.0);
  EXPECT_DOUBLE_EQ(acc.value(1), 1.0);
}

TEST(SparseAccumulator, KeysInFirstTouchOrder) {
  SparseAccumulator<idx_t> acc(10);
  acc.add(5, 1);
  acc.add(2, 1);
  acc.add(5, 1);
  acc.add(9, 1);
  EXPECT_EQ(acc.keys(), (std::vector<idx_t>{5, 2, 9}));
}

// --------------------------------------------------------------- Table ----

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Every line has the same width.
  std::size_t firstLen = out.find('\n');
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, firstLen);
    pos = next + 1;
  }
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(0.5, 0), "0");  // rounds to even via printf
  EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
}

// ------------------------------------------------------------- Options ----

TEST(Options, EnvLongFallbackAndParse) {
  ::unsetenv("FGHP_TEST_ENV");
  EXPECT_EQ(env_long("FGHP_TEST_ENV", 7), 7);
  ::setenv("FGHP_TEST_ENV", "42", 1);
  EXPECT_EQ(env_long("FGHP_TEST_ENV", 7), 42);
  ::setenv("FGHP_TEST_ENV", "abc", 1);
  EXPECT_THROW(env_long("FGHP_TEST_ENV", 7), std::invalid_argument);
  ::unsetenv("FGHP_TEST_ENV");
}

TEST(Options, EnvFlagSemantics) {
  ::unsetenv("FGHP_TEST_FLAG");
  EXPECT_FALSE(env_flag("FGHP_TEST_FLAG"));
  EXPECT_TRUE(env_flag("FGHP_TEST_FLAG", true));
  ::setenv("FGHP_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("FGHP_TEST_FLAG", true));
  ::setenv("FGHP_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("FGHP_TEST_FLAG"));
  ::unsetenv("FGHP_TEST_FLAG");
}

TEST(Options, EnvListSplitsAndTrims) {
  ::setenv("FGHP_TEST_LIST", " a, b ,,c ", 1);
  EXPECT_EQ(env_list("FGHP_TEST_LIST"), (std::vector<std::string>{"a", "b", "c"}));
  ::unsetenv("FGHP_TEST_LIST");
  EXPECT_TRUE(env_list("FGHP_TEST_LIST").empty());
}

TEST(Options, ArgParserFlagsAndPositionals) {
  const char* argv[] = {"prog", "--k", "16", "--eps=0.05", "matrix.mtx", "--verbose"};
  ArgParser args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.flag("k").value(), "16");
  EXPECT_EQ(args.flag_long("k", 0), 16);
  EXPECT_EQ(args.flag("eps").value(), "0.05");
  EXPECT_FALSE(args.flag("missing").has_value());
  EXPECT_TRUE(args.has_switch("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "matrix.mtx");
}

// --------------------------------------------------------------- Timer ----

TEST(Timer, MonotoneNonNegative) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// ----------------------------------------------- TaskGroup exceptions ----

TEST(TaskGroup, SingleExceptionRethrownUnchanged) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  group.run([] { throw IoError("the one failure"); });
  try {
    group.wait();
    FAIL() << "expected throw";
  } catch (const IoError& e) {
    // Not wrapped in an AggregateError: the original type survives.
    EXPECT_NE(std::string(e.what()).find("the one failure"), std::string::npos);
  }
}

TEST(TaskGroup, ConcurrentFailuresAllAggregated) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  constexpr int kFailures = 6;
  for (int i = 0; i < kFailures; ++i) {
    group.run([i] { throw FaultError("task " + std::to_string(i) + " died"); });
  }
  try {
    group.wait();
    FAIL() << "expected throw";
  } catch (const AggregateError& e) {
    EXPECT_EQ(e.size(), static_cast<std::size_t>(kFailures));
    EXPECT_EQ(e.code(), ErrorCode::kFault);  // all the same category
    const std::string what = e.what();
    for (int i = 0; i < kFailures; ++i) {
      EXPECT_NE(what.find("task " + std::to_string(i) + " died"), std::string::npos)
          << what;
    }
  }
}

TEST(TaskGroup, MixedCategoriesAggregateToGeneric) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.run([] { throw IoError("io went wrong"); });
  group.run([] { throw FormatError("format went wrong"); });
  try {
    group.wait();
    FAIL() << "expected throw";
  } catch (const AggregateError& e) {
    EXPECT_EQ(e.size(), 2u);
    EXPECT_EQ(e.code(), ErrorCode::kGeneric);
  }
}

TEST(TaskGroup, SuccessfulTasksUnaffectedByFailedSiblings) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([&done] { done.fetch_add(1); });
  }
  group.run([] { throw InvariantError("sibling failure"); });
  EXPECT_THROW(group.wait(), InvariantError);
  EXPECT_EQ(done.load(), 8);
}

TEST(TaskGroup, ReusableAfterFailure) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.run([] { throw IoError("first round"); });
  EXPECT_THROW(group.wait(), IoError);
  std::atomic<int> ran{0};
  group.run([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(group.wait());  // error list was swapped out, not sticky
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace fghp
