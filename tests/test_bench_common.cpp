// Benchmark plumbing tests: the median estimator every throughput bench
// reports, the STREAM-triad baseline the roofline section divides by, and
// the --json document's number precision.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"

namespace fghp::bench {
namespace {

TEST(Median, OddLengthTakesMiddleElement) {
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({9.0, 1.0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({2.0, 2.0, 2.0, 7.0, 1.0}), 2.0);
}

TEST(Median, EvenLengthAveragesTheTwoMiddleElements) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 10.0}), 2.5);
  // One outlier in an even sample moves the median by at most half the
  // neighbor gap — the property the benches rely on.
  EXPECT_DOUBLE_EQ(median({1.0, 1.0, 1.0, 1000.0}), 1.0);
}

TEST(Median, UnsortedInputIsSortedFirst) {
  EXPECT_DOUBLE_EQ(median({10.0, -1.0, 4.0, 3.0, 2.0}), 3.0);
}

TEST(Median, EmptySampleThrows) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(StreamTriad, ReportsPositiveFiniteBandwidth) {
  // Tiny arrays: this checks plumbing (timing, byte accounting), not the
  // machine's actual bandwidth.
  const double gbps = stream_triad_gbps(1 << 16, 3);
  EXPECT_GT(gbps, 0.0);
  EXPECT_TRUE(std::isfinite(gbps));
}

TEST(BenchJson, DoublesReadBackBitIdentical) {
  // Bench numbers are evidence: the document must carry every bit, not a
  // rounded spelling.
  JsonWriter doc;
  doc.scalar("third", 1.0 / 3.0);
  doc.add("runs").field("ms", 0.017494512345678901);
  const std::string path = ::testing::TempDir() + "fghp_bench_json_bits.json";
  ASSERT_TRUE(doc.write(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const json::Value v = json::parse(text.str());
  EXPECT_EQ(v.at("third").number, 1.0 / 3.0);
  EXPECT_EQ(v.at("runs").array.at(0).at("ms").number, 0.017494512345678901);
}

}  // namespace
}  // namespace fghp::bench
