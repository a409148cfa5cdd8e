#include "util/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"
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
    // The phase's wall time is the union of its spans across all threads,
    // not last end - first start: a phase that recurs between other phases
    // (`initial` at every RB node) is not running in the gaps.
    std::vector<Interval> all;
    std::uint64_t busyNs = 0, critNs = 0;
    for (auto& [tid, ivs] : p.byTid) {
      (void)tid;
      all.insert(all.end(), ivs.begin(), ivs.end());
      const std::uint64_t u = union_ns(ivs);
      busyNs += u;
      critNs = std::max(critNs, u);
    }
    const std::uint64_t wallNs = union_ns(all);
    st.wallMs = to_ms(wallNs);
    st.busyMs = to_ms(busyNs);
    st.criticalPathMs = to_ms(critNs);
    // Per-thread unions never exceed the phase's all-thread union, so this
    // lands in (0, 1]; the min() only absorbs floating-point rounding.
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
  json::Writer w(out);
  w.begin_object(json::Layout::kLines)
      .member("run_report_version", r.version)
      .member("tool", r.tool)
      .member("command", r.command)
      .member("status", r.status)
      .member("error", r.error)
      .member("wall_ms", r.wallMs)
      .member("cpu_ms", r.cpuMs);

  w.key("info").begin_object(json::Layout::kLines);
  for (const auto& [k, v] : r.info) w.member(k, v);
  w.end_object();

  w.key("trace")
      .begin_object()
      .member("enabled", r.traceEnabled)
      .member("events", r.traceEvents)
      .member("dropped", r.traceDropped)
      .end_object();

  w.key("phases").begin_array(json::Layout::kLines);
  for (const PhaseStat& p : r.phases) {
    w.begin_object()
        .member("name", p.name)
        .member("spans", p.spans)
        .member("workers", p.workers)
        .member("wall_ms", p.wallMs)
        .member("busy_ms", p.busyMs)
        .member("critical_path_ms", p.criticalPathMs)
        .member("parallel_efficiency", p.parallelEfficiency)
        .end_object();
  }
  w.end_array();

  w.key("workers").begin_array(json::Layout::kLines);
  for (const WorkerStat& wk : r.workers) {
    w.begin_object()
        .member("tid", wk.tid)
        .member("busy_ms", wk.busyMs)
        .member("utilization", wk.utilization)
        .end_object();
  }
  w.end_array();

  w.key("volume_audit").begin_object().member("present", r.audit.present);
  if (r.audit.present) {
    w.member("metric_prefix", r.audit.metricPrefix)
        .member("iterations", r.audit.iterations)
        .member("modeled_expand_words", r.audit.modeledExpandWords)
        .member("modeled_fold_words", r.audit.modeledFoldWords)
        .member("modeled_messages", r.audit.modeledMessages)
        .member("measured_expand_words", r.audit.measuredExpandWords)
        .member("measured_fold_words", r.audit.measuredFoldWords)
        .member("measured_messages", r.audit.measuredMessages)
        .member("matches", r.audit.matches);
  }
  w.end_object();

  w.key("proc_comm").begin_object().member("present", r.comm.present);
  if (r.comm.present) {
    w.member("total_words", r.comm.totalWords)
        .member("max_proc_words", r.comm.maxProcWords)
        .member("avg_proc_words", r.comm.avgProcWords)
        .member("imbalance_percent", r.comm.imbalancePercent);
    w.key("send_words").begin_array();
    for (const long long v : r.comm.sendWords) w.value(v);
    w.end_array().key("recv_words").begin_array();
    for (const long long v : r.comm.recvWords) w.value(v);
    w.end_array();
  }
  w.end_object();

  w.key("metrics");
  metrics::write_json(w, r.metricsDelta);
  w.end_object();
}

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
  const json::Value doc = json::parse(buf.str());

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
  const json::Value& tr = doc.at("trace");
  out << "  trace: " << (tr.at("enabled").boolean ? "enabled" : "disabled") << ", "
      << tr.at("events").as_int() << " events, " << tr.at("dropped").as_int()
      << " dropped\n";

  const json::Value& phases = doc.at("phases");
  if (!phases.array.empty()) {
    out << "\nphases (wall / busy / critical path, parallel efficiency):\n";
    Table t({"phase", "spans", "workers", "wall ms", "busy ms", "crit ms", "eff"});
    for (const json::Value& p : phases.array) {
      t.add_row({p.at("name").str, Table::num(p.at("spans").as_int()),
                 Table::num(p.at("workers").as_int()),
                 Table::num(p.at("wall_ms").number, 3),
                 Table::num(p.at("busy_ms").number, 3),
                 Table::num(p.at("critical_path_ms").number, 3),
                 pct(p.at("parallel_efficiency").number)});
    }
    out << t.to_string();
  }

  const json::Value& workers = doc.at("workers");
  if (!workers.array.empty()) {
    out << "\nworkers:\n";
    Table t({"tid", "busy ms", "utilization"});
    for (const json::Value& w : workers.array) {
      t.add_row({Table::num(w.at("tid").as_int()), Table::num(w.at("busy_ms").number, 3),
                 pct(w.at("utilization").number)});
    }
    out << t.to_string();
  }

  const json::Value& audit = doc.at("volume_audit");
  if (audit.at("present").boolean) {
    out << "\nvolume audit [" << audit.at("metric_prefix").str << "]: "
        << (audit.at("matches").boolean ? "MATCH" : "MISMATCH") << " — "
        << audit.at("iterations").as_int() << " iterations; expand "
        << audit.at("modeled_expand_words").as_int() << " modeled * iters vs "
        << audit.at("measured_expand_words").as_int() << " measured; fold "
        << audit.at("modeled_fold_words").as_int() << " vs "
        << audit.at("measured_fold_words").as_int() << "; messages "
        << audit.at("modeled_messages").as_int() << " vs "
        << audit.at("measured_messages").as_int() << "\n";
  } else {
    out << "\nvolume audit: not armed\n";
  }

  const json::Value& comm = doc.at("proc_comm");
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

  const json::Value& metrics = doc.at("metrics");
  out << "metrics: " << metrics.at("counters").object.size() << " counters, "
      << metrics.at("gauges").object.size() << " gauges, "
      << metrics.at("histograms").object.size()
      << " histograms (deltas over the run; full values in the JSON)\n";
}

}  // namespace fghp::report
