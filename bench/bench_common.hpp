// Shared plumbing for the benchmark harnesses: environment knobs, the
// model-sweep runner, and per-run record keeping.
//
// Knobs (environment variables):
//   FGHP_SCALE     matrix scale in (0, 1]        (default 1.0 = paper size)
//   FGHP_SEEDS     partitioner seeds per instance (default 1; paper used 50)
//   FGHP_K         comma list of K values         (default "16,32,64")
//   FGHP_MATRICES  comma list of suite names      (default: all 14)
//   FGHP_FULL=1    shorthand for FGHP_SCALE=1.0, FGHP_SEEDS=3
//   FGHP_THREADS   worker threads for the seed sweep and the task-parallel
//                  recursive bisection (default: hardware concurrency)
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/volume.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "partition/config.hpp"
#include "sparse/testsuite.hpp"
#include "exec/kernels.hpp"
#include "util/assert.hpp"
#include "util/observability.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fghp::bench {

struct BenchEnv {
  double scale = 0.3;
  idx_t seeds = 1;
  std::vector<idx_t> kValues = {16, 32, 64};
  std::vector<std::string> matrices;  // paper order
};

inline BenchEnv load_env() {
  BenchEnv env;
  const bool full = env_flag("FGHP_FULL");
  env.scale = 1.0;
  env.seeds = full ? 3 : 1;
  if (const auto s = env_str("FGHP_SCALE")) env.scale = std::stod(*s);
  env.seeds = static_cast<idx_t>(env_long("FGHP_SEEDS", env.seeds));
  if (const auto ks = env_str("FGHP_K"); ks) {
    env.kValues.clear();
    for (const auto& item : env_list("FGHP_K")) env.kValues.push_back(std::stoi(item));
  }
  env.matrices = env_list("FGHP_MATRICES");
  if (env.matrices.empty()) env.matrices = sparse::suite_names();
  return env;
}

/// Median of a sample vector (throughput benches report median-of-N so one
/// descheduled iteration cannot skew the result): middle element for odd
/// sizes, the average of the two middle elements for even sizes. Copies:
/// samples are tiny. Throws std::invalid_argument on an empty sample — a
/// silent 0.0 here once let a bench that measured nothing report a plausible
/// "0 ms" row instead of failing.
inline double median(std::vector<double> v) {
  FGHP_REQUIRE(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Measured STREAM-triad bandwidth (a[i] = b[i] + s * c[i]) in GB/s: the
/// machine's practical memory-bandwidth ceiling, reported by bench_spmv's
/// roofline section as the denominator of "achieved / peak". Three arrays
/// of nDoubles each (pick nDoubles well past the last-level cache), one
/// warmup pass, median of `reps` timed passes, 24 bytes counted per element
/// (two reads + one write — the classic STREAM accounting).
inline double stream_triad_gbps(std::size_t nDoubles, int reps) {
  std::vector<double> a(nDoubles, 0.0), b(nDoubles, 1.0), c(nDoubles, 2.0);
  const double s = 3.0;
  auto pass = [&] {
    FGHP_SIMD_LOOP
    for (std::size_t i = 0; i < nDoubles; ++i) a[i] = b[i] + s * c[i];
  };
  pass();
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    pass();
    ms.push_back(t.millis());
  }
  const double bytes = 24.0 * static_cast<double>(nDoubles);
  return bytes / (median(std::move(ms)) * 1e6);
}

// ------------------------------------------------------------- JSON ----
// Minimal JSON emission for the benches' --json flag: a top-level object of
// scalar fields plus named arrays of flat records. Covers exactly what the
// table benches write; strings in this codebase (suite names, model names)
// never need escaping beyond quotes/backslashes.

class JsonWriter {
 public:
  void scalar(const std::string& key, double v) { scalars_.push_back({key, num(v)}); }
  void scalar(const std::string& key, long long v) {
    scalars_.push_back({key, std::to_string(v)});
  }
  void scalar(const std::string& key, const std::string& v) {
    scalars_.push_back({key, quote(v)});
  }

  class Record {
   public:
    Record& field(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
    Record& field(const std::string& key, double v) { return raw(key, num(v)); }
    Record& field(const std::string& key, long long v) {
      return raw(key, std::to_string(v));
    }
    Record& field(const std::string& key, idx_t v) {
      return raw(key, std::to_string(static_cast<long long>(v)));
    }

   private:
    friend class JsonWriter;
    Record& raw(const std::string& key, std::string v) {
      fields_.push_back({key, std::move(v)});
      return *this;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Appends a record to the array named `key` (arrays keep insertion order).
  Record& add(const std::string& key) {
    if (arrays_.empty() || arrays_.back().first != key) arrays_.push_back({key, {}});
    arrays_.back().second.emplace_back();
    return arrays_.back().second.back();
  }

  /// Writes the document; returns false (after a stderr note) on I/O failure.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
      return false;
    }
    out << "{\n";
    bool first = true;
    for (const auto& [key, v] : scalars_) {
      out << (first ? "" : ",\n") << "  " << quote(key) << ": " << v;
      first = false;
    }
    for (const auto& [key, records] : arrays_) {
      out << (first ? "" : ",\n") << "  " << quote(key) << ": [\n";
      first = false;
      for (std::size_t i = 0; i < records.size(); ++i) {
        out << "    {";
        for (std::size_t f = 0; f < records[i].fields_.size(); ++f) {
          out << (f ? ", " : "") << quote(records[i].fields_[f].first) << ": "
              << records[i].fields_[f].second;
        }
        out << (i + 1 < records.size() ? "},\n" : "}\n");
      }
      out << "  ]";
    }
    out << "\n}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }
  static std::string num(double v) {
    std::ostringstream os;
    os << v;  // default precision; NaN/Inf never reach here
    return os.str();
  }

  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<std::pair<std::string, std::vector<Record>>> arrays_;
};

/// One (matrix, K, model, seed) measurement.
struct RunRecord {
  double scaledTotal = 0.0;  ///< total comm volume / M
  double scaledMax = 0.0;    ///< max per-proc volume / M
  double avgMsgs = 0.0;      ///< avg messages handled per proc
  double seconds = 0.0;      ///< partitioning time
  double pctImbalance = 0.0;
};

enum class Model { kGraph1d, kHypergraph1d, kFineGrain2d };

inline const char* model_name(Model m) {
  switch (m) {
    case Model::kGraph1d: return "graph-1d";
    case Model::kHypergraph1d: return "hyper-1d";
    case Model::kFineGrain2d: return "finegrain-2d";
  }
  return "?";
}

/// Runs one model once and measures everything Table 2 reports.
inline RunRecord run_once(const sparse::Csr& a, Model which, idx_t K, std::uint64_t seed) {
  part::PartitionConfig cfg;
  cfg.seed = seed;
  model::ModelRun run;
  switch (which) {
    case Model::kGraph1d: run = model::run_graph_model(a, K, cfg); break;
    case Model::kHypergraph1d: run = model::run_hypergraph1d(a, K, cfg); break;
    case Model::kFineGrain2d: run = model::run_finegrain(a, K, cfg); break;
  }
  const comm::CommStats s = comm::analyze(a, run.decomp);
  const model::LoadStats loads = model::compute_loads(a, run.decomp);
  RunRecord rec;
  rec.scaledTotal = s.scaledTotal(a.num_rows());
  rec.scaledMax = s.scaledMax(a.num_rows());
  rec.avgMsgs = s.avgMessagesPerProc;
  rec.seconds = run.partitionSeconds;
  rec.pctImbalance = loads.percentImbalance;
  return rec;
}

/// Averages run_once over `seeds` seeds (the paper averages over 50).
/// Seeds are independent partitioner runs (each gets its own Rng from its
/// seed), so they sweep in parallel on the shared pool; the reduction stays
/// in seed order, making the averages identical to the serial sweep.
inline RunRecord run_avg(const sparse::Csr& a, Model which, idx_t K, idx_t seeds) {
  std::vector<RunRecord> recs(static_cast<std::size_t>(seeds));
  parallel_for(ThreadPool::global(), seeds, [&](long s) {
    recs[static_cast<std::size_t>(s)] =
        run_once(a, which, K, static_cast<std::uint64_t>(s) + 1);
  });
  RunRecord avg;
  for (const RunRecord& r : recs) {
    avg.scaledTotal += r.scaledTotal;
    avg.scaledMax += r.scaledMax;
    avg.avgMsgs += r.avgMsgs;
    avg.seconds += r.seconds;
    avg.pctImbalance += r.pctImbalance;
  }
  const double n = static_cast<double>(seeds);
  avg.scaledTotal /= n;
  avg.scaledMax /= n;
  avg.avgMsgs /= n;
  avg.seconds /= n;
  avg.pctImbalance /= n;
  return avg;
}

}  // namespace fghp::bench
