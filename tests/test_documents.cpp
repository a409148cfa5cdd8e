// Pins the parsed tree of every JSON document the system writes (Chrome
// trace, metrics registry, RunReport, bench document, `fghp_tool partition
// --json`) and the keys on each line, in order. Separators, whitespace and
// number spellings may change; keys, key order, values and the
// one-record-per-line layouts may not.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/report.hpp"
#include "util/trace.hpp"

namespace fghp {
namespace {

/// The keys of every line that holds keys, in order: pins key order and the
/// one-record-per-line layouts without depending on separators.
std::vector<std::vector<std::string>> key_lines(const std::string& text) {
  std::vector<std::vector<std::string>> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::vector<std::string> keys;
    for (std::size_t i = 0; (i = line.find('"', i)) != std::string::npos;) {
      std::string s;
      for (++i; line[i] != '"'; ++i) s += line[i] == '\\' ? line[++i] : line[i];
      i = line.find_first_not_of(' ', i + 1);
      if (i != std::string::npos && line[i] == ':') keys.push_back(s);
    }
    if (!keys.empty()) out.push_back(std::move(keys));
  }
  return out;
}

/// Same type, members, strings and booleans; numbers within `tol`; keys in
/// `timings` are compared by type only.
void expect_same_tree(const json::Value& got, const json::Value& want, double tol,
                      const std::set<std::string>& timings, const std::string& at) {
  ASSERT_EQ(static_cast<int>(got.type), static_cast<int>(want.type)) << at;
  EXPECT_EQ(got.boolean, want.boolean) << at;
  EXPECT_EQ(got.str, want.str) << at;
  EXPECT_NEAR(got.number, want.number, tol) << at;
  ASSERT_EQ(got.array.size(), want.array.size()) << at;
  for (std::size_t i = 0; i < want.array.size(); ++i) {
    expect_same_tree(got.array[i], want.array[i], tol, timings,
                     at + "[" + std::to_string(i) + "]");
  }
  ASSERT_EQ(got.object.size(), want.object.size()) << at;
  for (const auto& [k, w] : want.object) {
    ASSERT_TRUE(got.has(k)) << at << "." << k;
    if (timings.count(k) > 0)
      EXPECT_EQ(static_cast<int>(got.at(k).type), static_cast<int>(w.type)) << at << "." << k;
    else
      expect_same_tree(got.at(k), w, tol, timings, at + "." + k);
  }
}

void expect_same_document(const std::string& got, const std::string& want, double tol = 0.0,
                          const std::set<std::string>& timings = {}) {
  expect_same_tree(json::parse(got), json::parse(want), tol, timings, "$");
  EXPECT_EQ(key_lines(got), key_lines(want)) << got;
  EXPECT_EQ(got.back(), '\n') << "a document ends with a newline";
}

TEST(DocumentPin, ChromeTraceFromExplicitSpans) {
  trace::enable(1u << 15);
  trace::reset();
  trace::complete("hg", "outer", 1000, 251000, "level", 7);
  trace::complete("exec", "q\"uote\\back\x01" "ctl", 2500, 3999, "proc", -3, "iter", 4);
  trace::complete("exec", "late", 123456789012, 123456789013);
  std::ostringstream os;
  trace::write_chrome_trace(os);
  trace::disable();
  trace::reset();
  expect_same_document(os.str(), R"({"displayTimeUnit":"ms","otherData":{"droppedEvents":0},"traceEvents":[
{"ph":"X","cat":"hg","name":"outer","pid":1,"tid":0,"ts":1.000,"dur":250.000,"args":{"level":7}},
{"ph":"X","cat":"exec","name":"q\"uote\\back\u0001ctl","pid":1,"tid":0,"ts":2.500,"dur":1.499,"args":{"proc":-3,"iter":4}},
{"ph":"X","cat":"exec","name":"late","pid":1,"tid":0,"ts":123456789.012,"dur":0.001,"args":{}}
]}
)");
}

TEST(DocumentPin, MetricsRegistry) {
  metrics::Registry reg;
  reg.counter("spmv.iterations").add(12);
  reg.counter("a.first").add(-5);
  reg.gauge("exec.workers").set(4);
  reg.gauge("b.neg").set(-9007199254740993);
  metrics::Histogram& h = reg.histogram("exec.iter_ns", {10, 100, 1000});
  h.observe(5);
  h.observe(50);
  h.observe(5000);
  reg.histogram("z.empty", {1});
  std::ostringstream os;
  reg.write_json(os);
  expect_same_document(os.str(), R"({
  "counters": {
    "a.first": -5,
    "spmv.iterations": 12
  },
  "gauges": {
    "b.neg": -9007199254740993,
    "exec.workers": 4
  },
  "histograms": {
    "exec.iter_ns": {"bounds": [10,100,1000], "counts": [1,1,0,1], "count": 3, "sum": 5055},
    "z.empty": {"bounds": [1], "counts": [0,0], "count": 0, "sum": 0}
  }
}
)");
}

TEST(DocumentPin, RunReportFilled) {
  report::RunReport r;
  r.tool = "fghp_tool";
  r.command = "simulate";
  r.status = "error";
  r.error = "line one\nline \"two\"\t\\";
  r.wallMs = 12.5;
  r.cpuMs = 40.25;
  r.info = {{"k", "16"}, {"matrix", "m.mtx"}};
  r.traceEnabled = true;
  r.traceEvents = 42;
  r.traceDropped = 3;
  r.phases = {{"spmv.iteration", 6, 2, 1.5, 2.25, 1.25, 0.75}, {"partition", 1, 1, 8, 8, 8, 1}};
  r.workers = {{0, 9.5, 0.875}, {3, 0.5, 0.0625}};
  r.audit = {true, "spmv", 3, 10, 4, 5, 30, 12, 14, false};
  r.comm = {true, {3, 5, 0}, {5, 0, 3}, 8, 8, 5.5, 45.5};
  r.metricsDelta.counters = {{"spmv.iterations", 3}, {"spmv.messages", 14}};
  r.metricsDelta.gauges = {{"exec.workers", 2}};
  r.metricsDelta.histograms["spmv.iter_ns"] = {{100, 1000}, {0, 2, 1}, 3, 2600};
  std::ostringstream os;
  report::write_json(r, os);
  expect_same_document(os.str(), R"({
  "run_report_version": 2,
  "tool": "fghp_tool",
  "command": "simulate",
  "status": "error",
  "error": "line one\u000aline \"two\"\u0009\\",
  "wall_ms": 12.5,
  "cpu_ms": 40.25,
  "info": {
    "k": "16",
    "matrix": "m.mtx"
  },
  "trace": {"enabled": true, "events": 42, "dropped": 3},
  "phases": [
    {"name": "spmv.iteration", "spans": 6, "workers": 2, "wall_ms": 1.5, "busy_ms": 2.25, "critical_path_ms": 1.25, "parallel_efficiency": 0.75},
    {"name": "partition", "spans": 1, "workers": 1, "wall_ms": 8, "busy_ms": 8, "critical_path_ms": 8, "parallel_efficiency": 1}
  ],
  "workers": [
    {"tid": 0, "busy_ms": 9.5, "utilization": 0.875},
    {"tid": 3, "busy_ms": 0.5, "utilization": 0.0625}
  ],
  "volume_audit": {"present": true, "metric_prefix": "spmv", "iterations": 3, "modeled_expand_words": 10, "modeled_fold_words": 4, "modeled_messages": 5, "measured_expand_words": 30, "measured_fold_words": 12, "measured_messages": 14, "matches": false},
  "proc_comm": {"present": true, "total_words": 8, "max_proc_words": 8, "avg_proc_words": 5.5, "imbalance_percent": 45.5, "send_words": [3,5,0], "recv_words": [5,0,3]},
  "metrics": {
    "counters": {
      "spmv.iterations": 3,
      "spmv.messages": 14
    },
    "gauges": {
      "exec.workers": 2
    },
    "histograms": {
      "spmv.iter_ns": {"bounds": [100,1000], "counts": [0,2,1], "count": 3, "sum": 2600}
    }
  }
}
)");
}

TEST(DocumentPin, RunReportEmpty) {
  std::ostringstream os;
  report::write_json(report::RunReport{}, os);
  expect_same_document(os.str(), R"({
  "run_report_version": 2,
  "tool": "",
  "command": "",
  "status": "ok",
  "error": "",
  "wall_ms": 0,
  "cpu_ms": 0,
  "info": {},
  "trace": {"enabled": false, "events": 0, "dropped": 0},
  "phases": [],
  "workers": [],
  "volume_audit": {"present": false},
  "proc_comm": {"present": false},
  "metrics": {
    "counters": {},
    "gauges": {},
    "histograms": {}
  }
}
)");
}

TEST(DocumentPin, BenchDocument) {
  bench::JsonWriter doc;
  doc.scalar("bench", std::string("spmv"));
  doc.scalar("scale", 0.05);
  doc.scalar("reps", 5LL);
  doc.add("runs").field("matrix", std::string("sherman3")).field("k", static_cast<idx_t>(16))
      .field("mt_wall_ms", 0.0174945).field("words", 1234567LL);
  doc.add("runs").field("matrix", std::string("finan512")).field("k", static_cast<idx_t>(64))
      .field("mt_wall_ms", 2.5).field("words", 0LL);
  doc.add("roofline").field("matrix", std::string("a\"b\\c")).field("gbps", 12.25);
  // Scalars set after the records still precede every array.
  doc.scalar("stream_gbps", 9.75);
  const std::string path = ::testing::TempDir() + "fghp_document_pin_bench.json";
  ASSERT_TRUE(doc.write(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  expect_same_document(text.str(), R"({
  "bench": "spmv",
  "scale": 0.05,
  "reps": 5,
  "stream_gbps": 9.75,
  "runs": [
    {"matrix": "sherman3", "k": 16, "mt_wall_ms": 0.0174945, "words": 1234567},
    {"matrix": "finan512", "k": 64, "mt_wall_ms": 2.5, "words": 0}
  ],
  "roofline": [
    {"matrix": "a\"b\\c", "gbps": 12.25}
  ]
}
)");
}

#ifdef FGHP_TOOL_PATH
std::string run_stdout(const std::string& cmd) {
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;) out.append(buf, n);
  EXPECT_EQ(pclose(p), 0) << cmd;
  return out;
}

TEST(DocumentPin, FghpToolPartitionJson) {
  const std::string tool = FGHP_TOOL_PATH;
  const std::string mtx = ::testing::TempDir() + "fghp_document_pin.mtx";
  run_stdout(tool + " gen sherman3 --out " + mtx + " --scale 0.1");
  const std::string got = run_stdout(tool + " partition " + mtx +
                                     " --model finegrain --k 4 --seed 1 --threads 1 --json");
  std::remove(mtx.c_str());
  // The averages were spelled with three decimals; the timings vary per run.
  expect_same_document(
      got,
      R"({"model":"finegrain","method":"multilevel","k":4,"partition_seconds":0.009135,"total_seconds":0.009909,"objective":44,"recoveries":0,"degraded":0,"total_volume_words":44,"max_proc_words":38,"expand_words":31,"fold_words":13,"avg_messages_per_proc":6.000,"max_messages_per_proc":8,"load_imbalance_percent":1.608}
)",
      5e-4, {"partition_seconds", "total_seconds"});
}
#endif

}  // namespace
}  // namespace fghp
