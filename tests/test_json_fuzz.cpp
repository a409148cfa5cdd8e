// Seeded mutation test for json::parse. The seeds are documents the repo's
// own writers emit: a RunReport, a Chrome trace, a metrics registry and a
// bench document. Each mutant (byte flips biased to JSON's structural bytes,
// truncations, duplicated or deleted lines, inserted digits) must either
// parse or raise a FormatError: never another exception, a crash or a
// sanitizer report. A mutant that parses must re-serialize through
// json::Writer and parse back to the same tree, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "fuzz_support.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace fghp {
namespace {

constexpr int kMutants = 4000;

/// The bytes JSON's grammar cares about.
constexpr std::string_view kJsonBytes = "{}[],:\"\\0123456789-+.eE \n\tnulltruefalse/u";

std::string run_report_seed() {
  report::RunReport r;
  r.tool = "fghp_tool";
  r.command = "simulate";
  r.status = "error";
  r.error = "bad \"decomp\"\n\tline 3 \\";
  r.wallMs = 12.5;
  r.cpuMs = 40.25;
  r.info = {{"k", "16"}, {"matrix", "m.mtx"}};
  r.traceEnabled = true;
  r.traceEvents = 42;
  r.traceDropped = 3;
  r.phases = {{"spmv.iteration", 6, 2, 1.5, 2.25, 1.25, 0.75}};
  r.workers = {{0, 9.5, 0.875}, {3, 0.5, 0.0625}};
  r.audit = {true, "spmv", 3, 10, 4, 5, 30, 12, 14, true};
  r.comm = {true, {3, 5, 0}, {5, 0, 3}, 8, 8, 5.5, 45.5};
  r.metricsDelta.counters = {{"spmv.iterations", 3}};
  r.metricsDelta.histograms["spmv.iter_ns"] = {{100, 1000}, {0, 2, 1}, 3, 2600};
  std::ostringstream os;
  report::write_json(r, os);
  return os.str();
}

std::string chrome_trace_seed() {
  trace::enable(1u << 12);
  trace::reset();
  trace::complete("hg", "outer", 1000, 251000, "level", 7);
  trace::complete("exec", "q\"uote\\ctl\x01", 2500, 3999, "proc", -3, "iter", 4);
  trace::instant("recovery", "exec.task_retry", "proc", 2);
  trace::counter("exec", "fold.words", 1.0e-7, "proc", 1);
  std::ostringstream os;
  trace::write_chrome_trace(os);
  trace::disable();
  trace::reset();
  return os.str();
}

std::string metrics_seed() {
  metrics::Registry reg;
  reg.counter("spmv.iterations").add(12);
  reg.gauge("b.neg").set(-9007199254740993);
  metrics::Histogram& h = reg.histogram("exec.iter_ns", {10, 100, 1000});
  h.observe(5);
  h.observe(5000);
  std::ostringstream os;
  reg.write_json(os);
  return os.str();
}

std::string bench_seed() {
  bench::JsonWriter doc;
  doc.scalar("bench", std::string("spmv"));
  doc.scalar("scale", 0.05);
  doc.add("runs").field("matrix", std::string("sherman3")).field("k", 16LL)
      .field("mt_wall_ms", 0.0174945).field("gflops", -2.5e-300);
  doc.add("roofline").field("matrix", std::string("a\"b\\c")).field("gbps", 12.25);
  const std::string path = ::testing::TempDir() + "fghp_json_fuzz_bench.json";
  EXPECT_TRUE(doc.write(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return text.str();
}

void write_value(json::Writer& w, const json::Value& v) {
  switch (v.type) {
    case json::Value::Type::kNull: w.null(); break;
    case json::Value::Type::kBool: w.value(v.boolean); break;
    case json::Value::Type::kNumber: w.value(v.number); break;
    case json::Value::Type::kString: w.value(v.str); break;
    case json::Value::Type::kObject:
      w.begin_object(json::Layout::kLines);
      for (const auto& [k, member] : v.object) {
        w.key(k);
        write_value(w, member);
      }
      w.end_object();
      break;
    case json::Value::Type::kArray:
      w.begin_array();
      for (const json::Value& e : v.array) write_value(w, e);
      w.end_array();
      break;
  }
}

/// Same tree: types, strings, booleans, and numbers to the bit.
bool same(const json::Value& a, const json::Value& b) {
  if (a.type != b.type || a.boolean != b.boolean || a.str != b.str ||
      std::bit_cast<std::uint64_t>(a.number) != std::bit_cast<std::uint64_t>(b.number) ||
      a.array.size() != b.array.size() || a.object.size() != b.object.size())
    return false;
  for (std::size_t i = 0; i < a.array.size(); ++i)
    if (!same(a.array[i], b.array[i])) return false;
  for (auto ia = a.object.begin(), ib = b.object.begin(); ia != a.object.end(); ++ia, ++ib)
    if (ia->first != ib->first || !same(ia->second, ib->second)) return false;
  return true;
}

TEST(JsonFuzz, SeedsAreWriterDocumentsThatParse) {
  for (const std::string& seed :
       {run_report_seed(), chrome_trace_seed(), metrics_seed(), bench_seed()}) {
    ASSERT_FALSE(seed.empty());
    EXPECT_NO_THROW(json::parse(seed)) << fuzz::printable(seed);
  }
}

TEST(JsonFuzz, EveryMutantParsesOrRaisesFormatErrorAndRoundTrips) {
  const std::vector<std::string> seeds = {run_report_seed(), chrome_trace_seed(),
                                          metrics_seed(), bench_seed()};
  Rng rng(20429);
  int parsed = 0, rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string text = seeds[static_cast<std::size_t>(m) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) fuzz::mutate(text, rng, kJsonBytes);
    json::Value tree;
    try {
      tree = json::parse(text);
    } catch (const FormatError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " raised an untyped error: " << e.what() << "\n"
                    << fuzz::printable(text);
      continue;
    }
    ++parsed;
    std::ostringstream out;
    json::Writer w(out);
    write_value(w, tree);
    const std::string again = out.str();
    try {
      EXPECT_TRUE(same(json::parse(again), tree))
          << "mutant " << m << " changed on a round trip: " << fuzz::printable(text)
          << "\nwritten as: " << fuzz::printable(again);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " re-serialized to unparseable text (" << e.what()
                    << "): " << fuzz::printable(again);
    }
  }
  // Both outcomes occur, so the mutants neither all break nor all miss the grammar.
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
  std::printf("%d mutants: %d parsed, %d rejected\n", kMutants, parsed, rejected);
}

}  // namespace
}  // namespace fghp
