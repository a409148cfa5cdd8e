#include "util/report.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/perf_counters.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fghp::report {

namespace {

/// Process user+system CPU time in ms (0.0 where getrusage is unavailable).
double cpu_now_ms() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
#else
  return 0.0;
#endif
}

struct Interval {
  std::uint64_t lo = 0, hi = 0;
};

/// Total covered length of a set of intervals (union, not sum): sort by
/// start, sweep. This is what makes nested spans on one thread count once.
std::uint64_t union_ns(std::vector<Interval>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::uint64_t total = 0, curLo = v[0].lo, curHi = v[0].hi;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].lo > curHi) {
      total += curHi - curLo;
      curLo = v[i].lo;
      curHi = v[i].hi;
    } else {
      curHi = std::max(curHi, v[i].hi);
    }
  }
  return total + (curHi - curLo);
}

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

long long delta_counter(const metrics::Snapshot& cur, const metrics::Snapshot& base,
                        const std::string& name) {
  const auto it = cur.counters.find(name);
  if (it == cur.counters.end()) return 0;
  const auto bit = base.counters.find(name);
  return it->second - (bit == base.counters.end() ? 0 : bit->second);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ----------------------------------------------------------- JSON out ----

void json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  // JSON has no NaN/Inf literals; clamp to null-safe 0 (never produced by a
  // healthy run, but a report writer must not emit an unparseable file).
  for (const char* p = buf; *p != '\0'; ++p) {
    if (std::isalpha(static_cast<unsigned char>(*p)) && *p != 'e' && *p != 'E')
      return "0";
  }
  return buf;
}

}  // namespace

Builder::Builder(std::string tool, std::string command)
    : tool_(std::move(tool)),
      command_(std::move(command)),
      startNs_(trace::now_ns()),
      startCpuMs_(cpu_now_ms()),
      baseline_(metrics::Registry::global().snapshot()) {}

void Builder::info(const std::string& key, std::string value) {
  info_[key] = std::move(value);
}

void Builder::info(const std::string& key, long long value) {
  info_[key] = std::to_string(value);
}

void Builder::set_error(std::string message) { error_ = std::move(message); }

void Builder::expect_volume(std::string metricPrefix, long long expandWordsPerIter,
                            long long foldWordsPerIter, long long messagesPerIter) {
  auditArmed_ = true;
  auditPrefix_ = std::move(metricPrefix);
  expectExpand_ = expandWordsPerIter;
  expectFold_ = foldWordsPerIter;
  expectMessages_ = messagesPerIter;
}

void Builder::set_proc_comm(std::vector<long long> sendWords,
                            std::vector<long long> recvWords) {
  comm_.present = true;
  comm_.sendWords = std::move(sendWords);
  comm_.recvWords = std::move(recvWords);
}

RunReport Builder::build() const {
  RunReport r;
  r.tool = tool_;
  r.command = command_;
  r.status = error_.empty() ? "ok" : "error";
  r.error = error_;
  r.wallMs = to_ms(trace::now_ns() - startNs_);
  r.cpuMs = std::max(0.0, cpu_now_ms() - startCpuMs_);
  r.info = info_;

  // ---- trace-derived statistics -----------------------------------------
  r.traceEnabled = trace::enabled();
  const std::vector<trace::EventView> events = trace::snapshot_events();
  r.traceEvents = static_cast<long long>(events.size());
  r.traceDropped = static_cast<long long>(trace::dropped_count());

  struct PhaseAccum {
    std::uint64_t firstStart = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t minLo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxHi = 0;
    long long spans = 0;
    std::map<std::uint32_t, std::vector<Interval>> byTid;
  };
  std::map<std::string, PhaseAccum> phases;
  std::map<std::uint32_t, std::vector<Interval>> workerIntervals;
  std::uint64_t runLo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t runHi = 0;
  for (const trace::EventView& e : events) {
    if (e.kind != trace::EventKind::kSpan) continue;
    const std::uint64_t lo = e.startNs;
    // A span never measures zero: the busy union (and so the efficiency)
    // must stay positive whenever any span exists.
    const std::uint64_t hi = e.startNs + std::max<std::uint64_t>(e.durNs, 1);
    PhaseAccum& p = phases[e.name != nullptr ? e.name : ""];
    p.firstStart = std::min(p.firstStart, lo);
    p.minLo = std::min(p.minLo, lo);
    p.maxHi = std::max(p.maxHi, hi);
    ++p.spans;
    p.byTid[e.tid].push_back({lo, hi});
    workerIntervals[e.tid].push_back({lo, hi});
    runLo = std::min(runLo, lo);
    runHi = std::max(runHi, hi);
  }

  std::vector<std::pair<std::uint64_t, std::string>> order;
  for (const auto& [name, p] : phases) order.emplace_back(p.firstStart, name);
  std::sort(order.begin(), order.end());
  for (const auto& [start, name] : order) {
    (void)start;
    PhaseAccum& p = phases[name];
    PhaseStat st;
    st.name = name;
    st.spans = p.spans;
    st.workers = static_cast<int>(p.byTid.size());
    const std::uint64_t wallNs = p.maxHi - p.minLo;
    st.wallMs = to_ms(wallNs);
    std::uint64_t busyNs = 0, critNs = 0;
    for (auto& [tid, ivs] : p.byTid) {
      (void)tid;
      const std::uint64_t u = union_ns(ivs);
      busyNs += u;
      critNs = std::max(critNs, u);
    }
    st.busyMs = to_ms(busyNs);
    st.criticalPathMs = to_ms(critNs);
    // Per-thread unions never exceed the phase wall, so this lands in
    // (0, 1]; the min() only absorbs floating-point rounding.
    st.parallelEfficiency = std::min(
        1.0, static_cast<double>(busyNs) /
                 (static_cast<double>(st.workers) * static_cast<double>(wallNs)));
    r.phases.push_back(std::move(st));
  }

  const std::uint64_t runWallNs = runHi > runLo ? runHi - runLo : 0;
  for (auto& [tid, ivs] : workerIntervals) {
    WorkerStat w;
    w.tid = tid;
    const std::uint64_t u = union_ns(ivs);
    w.busyMs = to_ms(u);
    w.utilization =
        runWallNs > 0
            ? std::min(1.0, static_cast<double>(u) / static_cast<double>(runWallNs))
            : 1.0;
    r.workers.push_back(w);
  }

  // ---- metrics delta ----------------------------------------------------
  const metrics::Snapshot cur = metrics::Registry::global().snapshot();
  for (const auto& [name, v] : cur.counters) {
    const auto bit = baseline_.counters.find(name);
    r.metricsDelta.counters[name] =
        v - (bit == baseline_.counters.end() ? 0 : bit->second);
  }
  r.metricsDelta.gauges = cur.gauges;  // last-write-wins values, not deltas
  for (const auto& [name, h] : cur.histograms) {
    metrics::HistogramSnapshot d = h;
    const auto bit = baseline_.histograms.find(name);
    if (bit != baseline_.histograms.end() && bit->second.bounds == h.bounds) {
      for (std::size_t i = 0; i < d.counts.size(); ++i)
        d.counts[i] -= bit->second.counts[i];
      d.count -= bit->second.count;
      d.sum -= bit->second.sum;
    }
    r.metricsDelta.histograms[name] = std::move(d);
  }

  // ---- perf -------------------------------------------------------------
  r.perf.compiledIn = perf::compiled_in();
  r.perf.enabled = perf::enabled();
  r.perf.available = perf::enabled() && perf::available();
  for (const auto& [name, v] : r.metricsDelta.counters) {
    if (name.rfind("perf.", 0) != 0) continue;
    if (ends_with(name, ".cycles")) r.perf.cycles += v;
    else if (ends_with(name, ".instructions")) r.perf.instructions += v;
    else if (ends_with(name, ".llc_misses")) r.perf.llcMisses += v;
    else if (ends_with(name, ".branch_misses")) r.perf.branchMisses += v;
  }

  // ---- volume audit -----------------------------------------------------
  if (auditArmed_) {
    VolumeAudit& a = r.audit;
    a.present = true;
    a.metricPrefix = auditPrefix_;
    a.modeledExpandWords = expectExpand_;
    a.modeledFoldWords = expectFold_;
    a.modeledMessages = expectMessages_;
    a.iterations = delta_counter(cur, baseline_, auditPrefix_ + ".iterations");
    a.measuredExpandWords = delta_counter(cur, baseline_, auditPrefix_ + ".expand.words");
    a.measuredFoldWords = delta_counter(cur, baseline_, auditPrefix_ + ".fold.words");
    a.measuredMessages = delta_counter(cur, baseline_, auditPrefix_ + ".messages");
    a.matches = a.measuredExpandWords == a.modeledExpandWords * a.iterations &&
                a.measuredFoldWords == a.modeledFoldWords * a.iterations &&
                a.measuredMessages == a.modeledMessages * a.iterations;
  }

  // ---- per-processor comm matrix ---------------------------------------
  if (comm_.present) {
    ProcCommStat c = comm_;
    long long total = 0, maxProc = 0;
    const std::size_t k = std::max(c.sendWords.size(), c.recvWords.size());
    for (std::size_t p = 0; p < k; ++p) {
      const long long s = p < c.sendWords.size() ? c.sendWords[p] : 0;
      const long long v = p < c.recvWords.size() ? c.recvWords[p] : 0;
      total += s;  // every word sent is received once; count it once
      maxProc = std::max(maxProc, s + v);
    }
    c.totalWords = total;
    c.maxProcWords = maxProc;
    c.avgProcWords = k > 0 ? 2.0 * static_cast<double>(total) / static_cast<double>(k)
                           : 0.0;
    c.imbalancePercent =
        c.avgProcWords > 0.0
            ? 100.0 * (static_cast<double>(maxProc) / c.avgProcWords - 1.0)
            : 0.0;
    r.comm = std::move(c);
  }

  return r;
}

// --------------------------------------------------------------- writer ----

void write_json(const RunReport& r, std::ostream& out) {
  out << "{\n  \"run_report_version\": " << r.version << ",\n  \"tool\": ";
  json_string(out, r.tool);
  out << ",\n  \"command\": ";
  json_string(out, r.command);
  out << ",\n  \"status\": ";
  json_string(out, r.status);
  out << ",\n  \"error\": ";
  json_string(out, r.error);
  out << ",\n  \"wall_ms\": " << jnum(r.wallMs) << ",\n  \"cpu_ms\": " << jnum(r.cpuMs);

  out << ",\n  \"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(out, k);
    out << ": ";
    json_string(out, v);
  }
  out << (first ? "}" : "\n  }");

  out << ",\n  \"trace\": {\"enabled\": " << (r.traceEnabled ? "true" : "false")
      << ", \"events\": " << r.traceEvents << ", \"dropped\": " << r.traceDropped
      << "}";

  out << ",\n  \"phases\": [";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseStat& p = r.phases[i];
    out << (i == 0 ? "\n    " : ",\n    ") << "{\"name\": ";
    json_string(out, p.name);
    out << ", \"spans\": " << p.spans << ", \"workers\": " << p.workers
        << ", \"wall_ms\": " << jnum(p.wallMs) << ", \"busy_ms\": " << jnum(p.busyMs)
        << ", \"critical_path_ms\": " << jnum(p.criticalPathMs)
        << ", \"parallel_efficiency\": " << jnum(p.parallelEfficiency) << "}";
  }
  out << (r.phases.empty() ? "]" : "\n  ]");

  out << ",\n  \"workers\": [";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const WorkerStat& w = r.workers[i];
    out << (i == 0 ? "\n    " : ",\n    ") << "{\"tid\": " << w.tid
        << ", \"busy_ms\": " << jnum(w.busyMs)
        << ", \"utilization\": " << jnum(w.utilization) << "}";
  }
  out << (r.workers.empty() ? "]" : "\n  ]");

  out << ",\n  \"perf\": {\"compiled_in\": " << (r.perf.compiledIn ? "true" : "false")
      << ", \"enabled\": " << (r.perf.enabled ? "true" : "false")
      << ", \"available\": " << (r.perf.available ? "true" : "false")
      << ", \"cycles\": " << r.perf.cycles
      << ", \"instructions\": " << r.perf.instructions
      << ", \"llc_misses\": " << r.perf.llcMisses
      << ", \"branch_misses\": " << r.perf.branchMisses << "}";

  out << ",\n  \"volume_audit\": {\"present\": " << (r.audit.present ? "true" : "false");
  if (r.audit.present) {
    out << ", \"metric_prefix\": ";
    json_string(out, r.audit.metricPrefix);
    out << ", \"iterations\": " << r.audit.iterations
        << ", \"modeled_expand_words\": " << r.audit.modeledExpandWords
        << ", \"modeled_fold_words\": " << r.audit.modeledFoldWords
        << ", \"modeled_messages\": " << r.audit.modeledMessages
        << ", \"measured_expand_words\": " << r.audit.measuredExpandWords
        << ", \"measured_fold_words\": " << r.audit.measuredFoldWords
        << ", \"measured_messages\": " << r.audit.measuredMessages
        << ", \"matches\": " << (r.audit.matches ? "true" : "false");
  }
  out << "}";

  out << ",\n  \"proc_comm\": {\"present\": " << (r.comm.present ? "true" : "false");
  if (r.comm.present) {
    out << ", \"total_words\": " << r.comm.totalWords
        << ", \"max_proc_words\": " << r.comm.maxProcWords
        << ", \"avg_proc_words\": " << jnum(r.comm.avgProcWords)
        << ", \"imbalance_percent\": " << jnum(r.comm.imbalancePercent)
        << ", \"send_words\": [";
    for (std::size_t i = 0; i < r.comm.sendWords.size(); ++i)
      out << (i ? "," : "") << r.comm.sendWords[i];
    out << "], \"recv_words\": [";
    for (std::size_t i = 0; i < r.comm.recvWords.size(); ++i)
      out << (i ? "," : "") << r.comm.recvWords[i];
    out << "]";
  }
  out << "}";

  out << ",\n  \"metrics\": {\n    \"counters\": {";
  first = true;
  for (const auto& [name, v] : r.metricsDelta.counters) {
    out << (first ? "\n      " : ",\n      ");
    first = false;
    json_string(out, name);
    out << ": " << v;
  }
  out << (first ? "}" : "\n    }") << ",\n    \"gauges\": {";
  first = true;
  for (const auto& [name, v] : r.metricsDelta.gauges) {
    out << (first ? "\n      " : ",\n      ");
    first = false;
    json_string(out, name);
    out << ": " << v;
  }
  out << (first ? "}" : "\n    }") << ",\n    \"histograms\": {";
  first = true;
  for (const auto& [name, h] : r.metricsDelta.histograms) {
    out << (first ? "\n      " : ",\n      ");
    first = false;
    json_string(out, name);
    out << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i)
      out << (i ? "," : "") << h.bounds[i];
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i)
      out << (i ? "," : "") << h.counts[i];
    out << "], \"count\": " << h.count << ", \"sum\": " << h.sum << "}";
  }
  out << (first ? "}" : "\n    }") << "\n  }\n}\n";
}

void write_file(const RunReport& r, const std::string& pathOrDash) {
  if (pathOrDash == "-") {
    write_json(r, std::cout);
    std::cout.flush();
    return;
  }
  std::ofstream out(pathOrDash);
  if (!out)
    throw IoError("cannot open report file for writing: " + pathOrDash,
                  at_path(pathOrDash));
  write_json(r, out);
  out.flush();
  if (!out) throw IoError("report write failed: " + pathOrDash, at_path(pathOrDash));
}

// --------------------------------------------------------------- parser ----

namespace jv {

bool Value::has(const std::string& key) const {
  return type == Type::kObject && object.count(key) > 0;
}

const Value& Value::at(const std::string& key) const {
  if (type != Type::kObject) throw FormatError("JSON: member access on a non-object");
  const auto it = object.find(key);
  if (it == object.end()) throw FormatError("JSON: missing member '" + key + "'");
  return it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) throw FormatError("JSON: trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw FormatError("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_lit(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    Value v;
    if (c == '{') {
      v.type = Value::Type::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object[std::move(key)] = parse_value();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Value::Type::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = Value::Type::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_lit("true")) {
      v.type = Value::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_lit("false")) {
      v.type = Value::Type::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_lit("null")) return v;
    // number
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("unexpected character");
    // The whole token must be one number: "1-2" or "1.2.3" is malformed,
    // not a prefix followed by junk.
    const char* last = s_.data() + pos_;
    const auto [end, ec] = std::from_chars(s_.data() + start, last, v.number);
    if (ec != std::errc() || end != last) fail("malformed number");
    v.type = Value::Type::kNumber;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          // Exactly four hex digits: no sign, space or short digit run.
          unsigned code = 0;
          const char* first = s_.data() + pos_;
          const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
          if (ec != std::errc() || end != first + 4) fail("\\u escape needs four hex digits");
          pos_ += 4;
          // Our own writers only escape control characters; anything in the
          // BMP below 0x80 round-trips, the rest degrades to '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace jv

// -------------------------------------------------------------- renderer ----

namespace {

std::string pct(double unit) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * unit);
  return buf;
}

}  // namespace

void render_file(const std::string& path, std::ostream& out) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open report file: " + path, at_path(path));
  std::ostringstream buf;
  buf << in.rdbuf();
  const jv::Value doc = jv::parse(buf.str());

  const long long version = doc.at("run_report_version").as_int();
  out << "RunReport v" << version << ": " << doc.at("tool").str << " "
      << doc.at("command").str << " — status " << doc.at("status").str;
  if (!doc.at("error").str.empty()) out << " (" << doc.at("error").str << ")";
  out << "\n";
  {
    char line[128];
    std::snprintf(line, sizeof line, "  wall %.2f ms, cpu %.2f ms\n",
                  doc.at("wall_ms").number, doc.at("cpu_ms").number);
    out << line;
  }
  if (!doc.at("info").object.empty()) {
    out << "  info:";
    for (const auto& [k, v] : doc.at("info").object) out << " " << k << "=" << v.str;
    out << "\n";
  }
  const jv::Value& tr = doc.at("trace");
  out << "  trace: " << (tr.at("enabled").boolean ? "enabled" : "disabled") << ", "
      << tr.at("events").as_int() << " events, " << tr.at("dropped").as_int()
      << " dropped\n";

  const jv::Value& phases = doc.at("phases");
  if (!phases.array.empty()) {
    out << "\nphases (wall / busy / critical path, parallel efficiency):\n";
    Table t({"phase", "spans", "workers", "wall ms", "busy ms", "crit ms", "eff"});
    for (const jv::Value& p : phases.array) {
      t.add_row({p.at("name").str, Table::num(p.at("spans").as_int()),
                 Table::num(p.at("workers").as_int()),
                 Table::num(p.at("wall_ms").number, 3),
                 Table::num(p.at("busy_ms").number, 3),
                 Table::num(p.at("critical_path_ms").number, 3),
                 pct(p.at("parallel_efficiency").number)});
    }
    out << t.to_string();
  }

  const jv::Value& workers = doc.at("workers");
  if (!workers.array.empty()) {
    out << "\nworkers:\n";
    Table t({"tid", "busy ms", "utilization"});
    for (const jv::Value& w : workers.array) {
      t.add_row({Table::num(w.at("tid").as_int()), Table::num(w.at("busy_ms").number, 3),
                 pct(w.at("utilization").number)});
    }
    out << t.to_string();
  }

  const jv::Value& perf = doc.at("perf");
  out << "\nperf counters: ";
  if (!perf.at("compiled_in").boolean) {
    out << "compiled out (FGHP_PERF=OFF)\n";
  } else if (!perf.at("enabled").boolean) {
    out << "disabled (run with --perf)\n";
  } else if (!perf.at("available").boolean) {
    out << "unavailable on this kernel/container (counters read zero)\n";
  } else {
    const double cycles = perf.at("cycles").number;
    const double instr = perf.at("instructions").number;
    char line[256];
    std::snprintf(line, sizeof line,
                  "%.3g cycles, %.3g instructions (IPC %.2f), %.3g LLC misses, "
                  "%.3g branch misses\n",
                  cycles, instr, cycles > 0 ? instr / cycles : 0.0,
                  perf.at("llc_misses").number, perf.at("branch_misses").number);
    out << line;
  }

  const jv::Value& audit = doc.at("volume_audit");
  if (audit.at("present").boolean) {
    out << "volume audit [" << audit.at("metric_prefix").str << "]: "
        << (audit.at("matches").boolean ? "MATCH" : "MISMATCH") << " — "
        << audit.at("iterations").as_int() << " iterations; expand "
        << audit.at("modeled_expand_words").as_int() << " modeled * iters vs "
        << audit.at("measured_expand_words").as_int() << " measured; fold "
        << audit.at("modeled_fold_words").as_int() << " vs "
        << audit.at("measured_fold_words").as_int() << "; messages "
        << audit.at("modeled_messages").as_int() << " vs "
        << audit.at("measured_messages").as_int() << "\n";
  } else {
    out << "volume audit: not armed\n";
  }

  const jv::Value& comm = doc.at("proc_comm");
  if (comm.at("present").boolean) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "proc comm: K=%zu, %lld total words, max/proc %lld "
                  "(avg %.1f, imbalance %.1f%%)\n",
                  comm.at("send_words").array.size(), comm.at("total_words").as_int(),
                  comm.at("max_proc_words").as_int(), comm.at("avg_proc_words").number,
                  comm.at("imbalance_percent").number);
    out << line;
  }

  const jv::Value& metrics = doc.at("metrics");
  out << "metrics: " << metrics.at("counters").object.size() << " counters, "
      << metrics.at("gauges").object.size() << " gauges, "
      << metrics.at("histograms").object.size()
      << " histograms (deltas over the run; full values in the JSON)\n";
}

}  // namespace fghp::report
