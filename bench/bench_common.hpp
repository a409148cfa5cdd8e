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
#include <string>
#include <variant>
#include <vector>

#include "comm/volume.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "partition/config.hpp"
#include "sparse/testsuite.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
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
#pragma omp simd
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
// The benches' --json document: top-level scalars, then named arrays of
// flat records, one record per line. Values are collected in call order
// and written through json::Writer.

class JsonWriter {
 public:
  using Scalar = std::variant<std::string, double, long long>;

  void scalar(const std::string& key, Scalar v) { scalars_.emplace_back(key, std::move(v)); }

  class Record {
   public:
    Record& field(const std::string& key, Scalar v) {
      fields_.emplace_back(key, std::move(v));
      return *this;
    }

   private:
    friend class JsonWriter;
    std::vector<std::pair<std::string, Scalar>> fields_;
  };

  /// Appends a record to the array named `key` (arrays keep insertion order).
  Record& add(const std::string& key) {
    if (arrays_.empty() || arrays_.back().first != key) arrays_.push_back({key, {}});
    arrays_.back().second.emplace_back();
    return arrays_.back().second.back();
  }

  /// Writes the document; returns false (after a stderr note) on I/O failure.
  bool write(const std::string& path) const {
    try {
      json::write_file(path, [this](std::ostream& out) { write_to(out); });
    } catch (const IoError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
    return true;
  }

 private:
  void write_to(std::ostream& out) const {
    json::Writer w(out);
    const auto member = [&w](const std::pair<std::string, Scalar>& kv) {
      w.key(kv.first);
      std::visit([&w](const auto& v) { w.value(v); }, kv.second);
    };
    w.begin_object(json::Layout::kLines);
    for (const auto& kv : scalars_) member(kv);
    for (const auto& [key, records] : arrays_) {
      w.key(key).begin_array(json::Layout::kLines);
      for (const Record& r : records) {
        w.begin_object();
        for (const auto& kv : r.fields_) member(kv);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }

  std::vector<std::pair<std::string, Scalar>> scalars_;
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
    case Model::kHypergraph1d: run = model::run_hypergraph1d(a, K, cfg, model::Line::kRow); break;
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
