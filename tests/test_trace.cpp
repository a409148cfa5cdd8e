// Tracing & metrics layer tests: span nesting across thread counts, ring
// overflow (drops-oldest with an exact drop count), Chrome trace-event JSON
// round-trip through json::parse, the disabled-mode guarantees (records
// nothing, allocates nothing), the phase-timer adapter, ScopedCapture, the
// metrics registry JSON, and partition bit-identity with tracing on/off.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "models/finegrain.hpp"
#include "partition/hg/partitioner.hpp"
#include "partition/phase_timers.hpp"
#include "sparse/generators.hpp"
#include "util/metrics.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace fghp {
namespace {

/// Exports the current trace and parses it back.
json::Value export_and_parse() {
  std::ostringstream os;
  trace::write_chrome_trace(os);
  return json::parse(os.str());
}

/// RAII guard: every test leaves tracing disabled and empty. The explicit
/// default capacity keeps tests independent of a smaller ring a previous
/// test may have installed (capacity is process-global state).
struct TraceSandbox {
  explicit TraceSandbox(std::size_t cap = 1u << 15) {
    trace::enable(cap);
    trace::reset();
  }
  ~TraceSandbox() {
    trace::disable();
    trace::reset();
  }
};

const json::Value* find_event(const json::Value& doc, const std::string& name) {
  for (const json::Value& e : doc.at("traceEvents").array)
    if (e.at("name").str == name) return &e;
  return nullptr;
}

// ------------------------------------------------------- JSON round-trip ----

TEST(ChromeTrace, RoundTripSpanInstantCounter) {
  TraceSandbox sandbox;

  const std::uint64_t t0 = trace::now_ns();
  trace::complete("cat.span", "a.span", t0, t0 + 2500, "k0", 7, "k1", -3);
  trace::instant("cat.inst", "a.instant", "ord", 42);
  trace::counter("cat.ctr", "a.counter", 12.5, "proc", 2);

  const json::Value doc = export_and_parse();
  EXPECT_EQ(doc.at("otherData").at("droppedEvents").number, 0.0);
  ASSERT_EQ(doc.at("traceEvents").array.size(), 3u);

  const json::Value* span = find_event(doc, "a.span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->at("ph").str, "X");
  EXPECT_EQ(span->at("cat").str, "cat.span");
  EXPECT_EQ(span->at("pid").number, 1.0);
  EXPECT_NEAR(span->at("dur").number, 2.5, 1e-9);  // 2500 ns in microseconds
  EXPECT_EQ(span->at("args").at("k0").number, 7.0);
  EXPECT_EQ(span->at("args").at("k1").number, -3.0);

  const json::Value* inst = find_event(doc, "a.instant");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->at("ph").str, "i");
  EXPECT_EQ(inst->at("s").str, "t");
  EXPECT_EQ(inst->at("args").at("ord").number, 42.0);
  EXPECT_FALSE(inst->has("dur"));

  const json::Value* ctr = find_event(doc, "a.counter");
  ASSERT_NE(ctr, nullptr);
  EXPECT_EQ(ctr->at("ph").str, "C");
  EXPECT_EQ(ctr->at("args").at("value").number, 12.5);
  EXPECT_EQ(ctr->at("args").at("proc").number, 2.0);
}

// ---------------------------------------------------------- span nesting ----

TEST(TraceSpans, NestedScopesContainedSingleThread) {
  TraceSandbox sandbox;
  {
    trace::TraceScope outer("t", "outer");
    {
      trace::TraceScope mid("t", "mid");
      trace::TraceScope inner("t", "inner");
    }
  }

  const json::Value doc = export_and_parse();
  const json::Value* outer = find_event(doc, "outer");
  const json::Value* mid = find_event(doc, "mid");
  const json::Value* inner = find_event(doc, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_EQ(outer->at("tid").number, mid->at("tid").number);
  EXPECT_EQ(mid->at("tid").number, inner->at("tid").number);

  auto contains = [](const json::Value& a, const json::Value& b) {  // a contains b
    return a.at("ts").number <= b.at("ts").number &&
           b.at("ts").number + b.at("dur").number <= a.at("ts").number + a.at("dur").number;
  };
  EXPECT_TRUE(contains(*outer, *mid));
  EXPECT_TRUE(contains(*mid, *inner));
}

class TraceSpansMt : public ::testing::TestWithParam<int> {};

TEST_P(TraceSpansMt, PerThreadNestingAndDistinctTids) {
  const int numThreads = GetParam();
  TraceSandbox sandbox;

  std::vector<std::thread> pool;
  for (int t = 0; t < numThreads; ++t) {
    pool.emplace_back([t] {
      trace::TraceScope outer("mt", "mt.outer", "tix", t);
      trace::TraceScope inner("mt", "mt.inner", "tix", t);
    });
  }
  for (auto& th : pool) th.join();

  const json::Value doc = export_and_parse();
  std::map<int, const json::Value*> outers, inners;
  for (const json::Value& e : doc.at("traceEvents").array) {
    const int tix = static_cast<int>(e.at("args").at("tix").number);
    if (e.at("name").str == "mt.outer") outers[tix] = &e;
    if (e.at("name").str == "mt.inner") inners[tix] = &e;
  }
  ASSERT_EQ(outers.size(), static_cast<std::size_t>(numThreads));
  ASSERT_EQ(inners.size(), static_cast<std::size_t>(numThreads));

  std::vector<double> tids;
  for (const auto& [tix, outer] : outers) {
    const json::Value* inner = inners.at(tix);
    // Same thread recorded both; the inner scope is contained in the outer.
    EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
    EXPECT_LE(outer->at("ts").number, inner->at("ts").number);
    EXPECT_LE(inner->at("ts").number + inner->at("dur").number,
              outer->at("ts").number + outer->at("dur").number);
    tids.push_back(outer->at("tid").number);
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
      << "each thread must own its own buffer (distinct tid)";
}

INSTANTIATE_TEST_SUITE_P(Threads, TraceSpansMt, ::testing::Values(1, 2, 8));

// ----------------------------------------------------------- ring buffer ----

TEST(TraceRing, OverflowDropsOldestAndCountsDrops) {
  TraceSandbox sandbox(16);

  for (int i = 0; i < 40; ++i) trace::instant("ring", "tick", "i", i);

  EXPECT_EQ(trace::event_count(), 16u);
  EXPECT_EQ(trace::dropped_count(), 24u);

  const json::Value doc = export_and_parse();
  EXPECT_EQ(doc.at("otherData").at("droppedEvents").number, 24.0);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 16u);
  // The survivors are exactly the newest 16, still in emission order.
  for (std::size_t k = 0; k < events.size(); ++k)
    EXPECT_EQ(events[k].at("args").at("i").number, static_cast<double>(24 + k));
}

// -------------------------------------------------------- disabled mode ----

TEST(TraceDisabled, RecordsNothingAndAllocatesNothing) {
  trace::disable();
  trace::reset();

  trace::now_ns();  // warm the clock epoch outside the measured window

  const long before = test::allocation_count();
  for (int i = 0; i < 100; ++i) {
    trace::TraceScope span("off", "site", "arg", i);
    trace::instant("off", "instant", "arg", i);
    trace::counter("off", "counter", 1.0, "arg", i);
  }
  const long delta = test::allocation_count() - before;

  EXPECT_EQ(delta, 0) << "a disabled site must not touch the heap";
  EXPECT_EQ(trace::event_count(), 0u);
  EXPECT_EQ(trace::dropped_count(), 0u);
}

// ------------------------------------------------- phase-timer adapter ----

TEST(PhaseTimers, ScopedPhaseFeedsTimersAndTrace) {
  TraceSandbox sandbox;
  const part::PhaseSnapshot before = part::phase_timers().snapshot();
  {
    part::ScopedPhase phase(part::Phase::kCoarsen, "level", 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const part::PhaseSnapshot delta = part::phase_timers().snapshot() - before;
  EXPECT_GT(delta[part::Phase::kCoarsen], 0.0);
  EXPECT_EQ(delta[part::Phase::kInitial], 0.0);

  const json::Value doc = export_and_parse();
  const json::Value* span = find_event(doc, "coarsen");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->at("cat").str, "rb.phase");
  EXPECT_EQ(span->at("args").at("level").number, 3.0);
  // Both views read the same clock pair: the span duration (us) matches the
  // accumulated phase seconds.
  EXPECT_NEAR(span->at("dur").number * 1e-6, delta[part::Phase::kCoarsen],
              delta[part::Phase::kCoarsen] * 0.01 + 1e-9);
}

// --------------------------------------------- capture & instrumentation ----

TEST(ScopedCapture, WritesPipelineTraceAndRestoresState) {
  // Restore the full-size ring (a previous test may have shrunk it), then
  // start from the disabled state the capture is expected to return to.
  trace::enable(1u << 15);
  trace::disable();
  trace::reset();
  ASSERT_FALSE(trace::enabled());
  const std::string path = ::testing::TempDir() + "fghp_capture_trace.json";

  const sparse::Csr a = sparse::stencil2d(12, 12);
  const model::FineGrainModel m = model::build_finegrain(a);
  part::PartitionConfig cfg;
  cfg.numThreads = 1;
  {
    trace::ScopedCapture capture(path);
    part::partition_hypergraph(m.h, 4, cfg);
  }

  EXPECT_FALSE(trace::enabled()) << "capture must restore the prior state";

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());

  std::map<std::string, int> byName;
  for (const json::Value& e : doc.at("traceEvents").array) ++byName[e.at("name").str];
  EXPECT_GT(byName["hg.partition"], 0);
  EXPECT_GT(byName["rb.node"], 0);
  EXPECT_GT(byName["coarsen"], 0) << "phase spans missing";
  trace::reset();
  std::remove(path.c_str());
}

// ------------------------------------------------------ metrics registry ----

TEST(Metrics, RegistryJsonRoundTrip) {
  metrics::Registry reg;
  reg.counter("a.count").add(3);
  reg.counter("a.count").add(4);
  reg.gauge("b.gauge").set(-17);
  metrics::Histogram& h = reg.histogram("c.hist", {10, 100});
  h.observe(5);
  h.observe(50);
  h.observe(5000);

  std::ostringstream os;
  reg.write_json(os);
  const json::Value doc = json::parse(os.str());

  EXPECT_EQ(doc.at("counters").at("a.count").number, 7.0);
  EXPECT_EQ(doc.at("gauges").at("b.gauge").number, -17.0);
  const json::Value& hist = doc.at("histograms").at("c.hist");
  ASSERT_EQ(hist.at("bounds").array.size(), 2u);
  ASSERT_EQ(hist.at("counts").array.size(), 3u);
  EXPECT_EQ(hist.at("counts").array[0].number, 1.0);
  EXPECT_EQ(hist.at("counts").array[1].number, 1.0);
  EXPECT_EQ(hist.at("counts").array[2].number, 1.0);
  EXPECT_EQ(hist.at("count").number, 3.0);
  EXPECT_EQ(hist.at("sum").number, 5055.0);

  reg.reset();
  EXPECT_EQ(reg.counter("a.count").value(), 0);
  EXPECT_EQ(reg.gauge("b.gauge").value(), 0);
}

TEST(Metrics, HistogramBucketsByUpperBound) {
  metrics::Histogram h({0, 8, 64});
  h.observe(0);   // bucket 0 (<= 0)
  h.observe(1);   // bucket 1
  h.observe(8);   // bucket 1 (inclusive upper bound)
  h.observe(9);   // bucket 2
  h.observe(65);  // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 83);
}

// ------------------------------------------------------- non-perturbation ----

TEST(TraceDeterminism, PartitionBitIdenticalWithTracingOnOffAcrossThreads) {
  const sparse::Csr a = sparse::stencil2d(16, 16);
  const model::FineGrainModel m = model::build_finegrain(a);

  for (idx_t threads : {1, 2, 8}) {
    part::PartitionConfig cfg;
    cfg.seed = 7;
    cfg.numThreads = threads;

    ASSERT_FALSE(trace::enabled());
    const part::HgResult off = part::partition_hypergraph(m.h, 8, cfg);

    std::vector<idx_t> onAssign;
    {
      TraceSandbox sandbox;
      const part::HgResult on = part::partition_hypergraph(m.h, 8, cfg);
      onAssign = on.partition.assignment();
      EXPECT_GT(trace::event_count(), 0u);
    }
    EXPECT_EQ(off.partition.assignment(), onAssign)
        << "tracing must not perturb the partition at " << threads << " threads";
  }
}

}  // namespace
}  // namespace fghp
