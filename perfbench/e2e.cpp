// End-to-end pipeline benchmark program: one workload per process, from a
// Matrix Market file to a ready execution session and a timed iteration
// loop, attributed layer by layer from the trace (see perfbench/README.md).
//
// The workload's matrix (fixed structure, values drawn from --seed) is
// written to a .mtx file, untimed. --seed also draws the input vector. The
// public pipeline then runs on that file:
//
//   sparse::read_matrix_market_file
//     -> model::run_finegrain  (or spgemm::build_tasks +
//                               spgemm::run_spgemm_finegrain)
//     -> spmv::build_plan      (or spgemm::build_schedule)
//     -> session construction (compile)
//     -> run_mt and run iterations
//
// Every operation is checked. Each multiply is compared with the serial
// reference under the scaled tolerance |y^ - y| <= eps * L * max|a| * max|x|
// (L = longest row, or most contributions to one C entry), and its
// ExecStats.wordsSent must equal the lambda-1 objective. Each pipeline run
// must satisfy objective == analyzed words == compiled words and
// imbalance <= eps. A failed check or a typed fghp::Error counts as a failed
// operation; the run goes on.
//
// Usage:
//   fghp_e2e --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//            [--commit ID] [--smoke]
//
// --trace 0 reports the end-to-end metrics; --trace 1 enables tracing and
// reports the per-layer metrics. --smoke shrinks the matrix and runs one
// pipeline. The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/volume.hpp"
#include "exec/compiled.hpp"
#include "models/finegrain.hpp"
#include "partition/phase_timers.hpp"
#include "sparse/mmio.hpp"
#include "sparse/testsuite.hpp"
#include "spgemm/finegrain.hpp"
#include "spgemm/plan.hpp"
#include "spgemm/tasks.hpp"
#include "spgemm/volume.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace fghp;
using Clock = std::chrono::steady_clock;

constexpr idx_t kParts = 16;
/// eps of the scaled result check.
constexpr double kCheckEps = 1e-10;
/// Iterations per timed block; the untraced loop alternates run_mt and run
/// blocks so both see the same machine state. iter_p99_ms is the median over
/// blocks of each run_mt block's 99th percentile, so a burst of load on the
/// host that spans a few blocks does not set it. Blocks are long so that the
/// first run_mt of a block, which wakes the idle pool, stays well under 1%
/// of the block's samples.
constexpr int kBlock = 512;
/// Iterations per traced batch. The trace rings are read and reset after
/// each batch, so their capacity bounds one batch (~65 events per iteration
/// at K=16), not the whole loop.
constexpr int kTracedBatch = 500;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;
/// Matrix scale factor of --smoke.
constexpr double kSmokeScale = 0.1;
/// make_matrix seed of every workload's structure, and its
/// PartitionConfig::seed. A workload is one matrix and one partition, so the
/// volume counts repeat exactly: across generator seeds the finan512
/// analog's volume varies by 40% (IQR / median), and across partitioner
/// seeds the spgemm max per-processor words by 25%, which would drown any
/// change a run is meant to show. --seed draws the matrix values and the
/// input vector.
constexpr std::uint64_t kStructureSeed = 1;

struct Workload {
  const char* name;
  const char* matrix;  ///< sparse::make_matrix suite name
  double scale;
  bool spgemm;  ///< C = A*A instead of y = A x
  part::PartitionMethod method;
  int setupReps;  ///< pipeline runs behind the setup_s median
};

constexpr Workload kWorkloads[] = {
    {"spmv-finegrain-ml", "mod2", 1.0, false, part::PartitionMethod::kMultilevel, 2},
    {"spmv-geometric-iter", "finan512", 1.0, false, part::PartitionMethod::kGeometric, 5},
    {"spgemm-finegrain", "ken-11", 0.5, true, part::PartitionMethod::kMultilevel, 3},
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double max_abs(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

bool within(std::span<const double> got, std::span<const double> want, double tol) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::abs(got[i] - want[i]) <= tol)) return false;  // NaN fails too
  return true;
}

/// The workload's matrix: its fixed structure with values drawn from the
/// run's seed, +-[0.5, 1.5).
sparse::Csr make_input(const Workload& w, double scale, std::uint64_t seed) {
  const sparse::Csr s = sparse::make_matrix(w.matrix, kStructureSeed, scale);
  Rng rng(seed);
  std::vector<double> vals(s.values().size());
  for (double& v : vals) v = (rng.bernoulli(0.5) ? -1.0 : 1.0) * (0.5 + rng.uniform01());
  return sparse::Csr(s.num_rows(), s.num_cols(), s.row_ptr(), s.col_ind(), std::move(vals));
}

bool named(const char* name, const char* want) {
  return name != nullptr && std::strcmp(name, want) == 0;
}

/// Checked operations, counted rather than aborted.
struct Ops {
  long attempted = 0;
  long failed = 0;

  /// Runs one operation; `fn` returns whether its checks held. A typed
  /// fghp::Error is a failed operation too; any other exception is a bug and
  /// propagates.
  template <class Fn>
  bool run(const char* what, Fn&& fn) {
    ++attempted;
    try {
      if (fn()) return true;
      note(what, "check failed");
    } catch (const Error& e) {
      note(what, e.what());
    }
    ++failed;
    return false;
  }

 private:
  void note(const char* what, const char* why) const {
    if (failed < 10) std::fprintf(stderr, "operation %s failed: %s\n", what, why);
  }
};

/// Communication and balance of one pipeline run. The same volume is read
/// three ways: the partitioner's lambda-1 objective, the decomposition
/// analyzed from first principles, and the compiled image's send buffers.
struct Audit {
  weight_t objective = 0;
  weight_t analyzedWords = 0;
  weight_t imageWords = 0;
  weight_t maxProcWords = 0;
  double msgsPerProc = 0.0;
  double imbalance = 0.0;
  idx_t recoveries = 0;
  idx_t degraded = 0;

  bool holds(double eps) const {
    return objective == analyzedWords && analyzedWords == imageWords && imbalance <= eps;
  }
};

/// y = A x: read, fine-grain partition (multilevel or geometric), plan,
/// compile. The constructor is the timed setup; prepare() builds the
/// untimed check data.
class SpmvPipeline {
 public:
  SpmvPipeline(const std::string& path, const part::PartitionConfig& cfg) {
    {
      trace::TraceScope s("bench", "e2e.ingest");
      a_ = sparse::read_matrix_market_file(path);
    }
    {
      trace::TraceScope s("bench", "e2e.partition");
      run_ = model::run_finegrain(a_, kParts, cfg);
    }
    spmv::SpmvPlan plan;
    {
      trace::TraceScope s("bench", "e2e.plan");
      plan = spmv::build_plan(a_, run_.decomp);
    }
    trace::TraceScope s("bench", "e2e.compile");
    session_.emplace(plan);
  }

  Audit prepare(std::uint64_t seed) {
    Rng rng(~seed);  // a stream apart from the matrix values'
    x_.resize(static_cast<std::size_t>(a_.num_cols()));
    for (double& v : x_) v = 2.0 * rng.uniform01() - 1.0;
    yRef_ = spmv::multiply(a_, x_);
    idx_t maxRow = 0;
    for (idx_t i = 0; i < a_.num_rows(); ++i) maxRow = std::max(maxRow, a_.row_size(i));
    tol_ = kCheckEps * static_cast<double>(maxRow) * max_abs(a_.values()) * max_abs(x_);

    const comm::CommStats s = comm::analyze(a_, run_.decomp);
    Audit au;
    au.objective = run_.objective;
    au.analyzedWords = s.totalWords;
    au.imageWords = image().total_words();
    au.maxProcWords = s.maxProcWords;
    au.msgsPerProc = s.avgMessagesPerProc;
    au.imbalance = run_.imbalance;
    au.recoveries = run_.numRecoveries;
    au.degraded = run_.numDegraded;
    return au;
  }

  const exec::Image& image() const { return session_->compiled(); }
  void run_mt(idx_t threads, exec::ExecStats& st) { session_->run_mt(x_, y_, threads, &st); }
  void run_serial(exec::ExecStats& st) { session_->run(x_, y_, &st); }
  bool result_ok() const { return within(y_, yRef_, tol_); }

 private:
  sparse::Csr a_;
  model::ModelRun run_;
  std::optional<spmv::ExecSession> session_;
  std::vector<double> x_, y_, yRef_;
  double tol_ = 0.0;
};

/// C = A*A: read, task graph, fine-grain SpGEMM partition, schedule,
/// compile.
class SpgemmPipeline {
 public:
  SpgemmPipeline(const std::string& path, const part::PartitionConfig& cfg) {
    {
      trace::TraceScope s("bench", "e2e.ingest");
      a_ = sparse::read_matrix_market_file(path);
    }
    {
      trace::TraceScope s("bench", "e2e.tasks");
      t_ = spgemm::build_tasks(a_, a_);
    }
    {
      trace::TraceScope s("bench", "e2e.partition");
      run_ = spgemm::run_spgemm_finegrain(t_, kParts, cfg);
    }
    exec::Schedule sched;
    {
      trace::TraceScope s("bench", "e2e.plan");
      sched = spgemm::build_schedule(t_, run_.decomp);
    }
    trace::TraceScope s("bench", "e2e.compile");
    session_.emplace(sched);
  }

  Audit prepare(std::uint64_t /*seed*/) {
    cRef_ = spgemm::reference_multiply(a_, a_, t_);
    std::vector<idx_t> contributions(static_cast<std::size_t>(t_.num_c()), 0);
    idx_t maxContrib = 0;
    for (idx_t g : t_.taskC)
      maxContrib = std::max(maxContrib, ++contributions[static_cast<std::size_t>(g)]);
    const double amax = max_abs(a_.values());
    tol_ = kCheckEps * static_cast<double>(maxContrib) * amax * amax;

    const spgemm::SpgemmCommStats s = spgemm::analyze(t_, run_.decomp);
    Audit au;
    au.objective = run_.cutsize;
    au.analyzedWords = s.totalWords;
    au.imageWords = image().total_words();
    au.maxProcWords = s.maxProcWords;
    au.msgsPerProc = 2.0 * static_cast<double>(s.totalMessages) / static_cast<double>(kParts);
    au.imbalance = run_.imbalance;
    au.recoveries = run_.numRecoveries;
    au.degraded = run_.numDegraded;
    return au;
  }

  const exec::Image& image() const { return session_->image(); }
  void run_mt(idx_t threads, exec::ExecStats& st) {
    session_->run_mt(inputs(), c_, threads, &st);
  }
  void run_serial(exec::ExecStats& st) { session_->run(inputs(), c_, &st); }
  bool result_ok() const { return within(c_, cRef_, tol_); }

 private:
  std::array<std::span<const double>, 2> inputs() const { return {a_.values(), a_.values()}; }

  sparse::Csr a_;
  spgemm::TaskGraph t_;
  spgemm::SpgemmRun run_;
  std::optional<exec::Session> session_;
  std::vector<double> c_, cRef_;
  double tol_ = 0.0;
};

/// Layer times of one traced setup, read from its trace events.
struct SetupLayers {
  double setup = 0, ingest = 0, modelBuild = 0, tasks = 0, partition = 0, rb = 0, plan = 0,
         compile = 0, uncovered = 0;
  long levels = 0;
};

SetupLayers attribute_setup(const std::vector<trace::EventView>& events) {
  constexpr double kS = 1e-9;
  // The library's own outermost spans of each layer; what of e2e.setup they
  // leave uncovered is glue no layer span explains.
  static constexpr const char* kLayerSpans[] = {
      "mmio.parse",   "tasks.build",  "build.finegrain", "build.finegrain_points",
      "hg.partition", "geo.partition", "plan.build",     "plan.compile"};
  SetupLayers out;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (const trace::EventView& e : events) {
    if (e.kind != trace::EventKind::kSpan) continue;
    const double d = static_cast<double>(e.durNs) * kS;
    if (named(e.name, "e2e.setup")) out.setup = d;
    else if (named(e.name, "e2e.ingest")) out.ingest = d;
    else if (named(e.name, "e2e.tasks")) out.tasks = d;
    else if (named(e.name, "e2e.plan")) out.plan = d;
    else if (named(e.name, "e2e.compile")) out.compile = d;
    else if (named(e.name, "coarsen.level")) ++out.levels;
    // The root bisection node spans parts [0, K).
    else if (named(e.name, "rb.node") && e.v0 == 0 && e.v1 == kParts) out.rb = d;
    if (named(e.name, "build.finegrain") || named(e.name, "build.finegrain_points"))
      out.modelBuild += d;
    if (named(e.name, "hg.partition") || named(e.name, "geo.partition")) out.partition += d;
    for (const char* n : kLayerSpans)
      if (named(e.name, n)) covered.emplace_back(e.startNs, e.startNs + e.durNs);
  }
  std::sort(covered.begin(), covered.end());
  std::uint64_t unionNs = 0, reach = 0;
  for (const auto& [lo, hi] : covered) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) unionNs += hi - from;
    reach = std::max(reach, hi);
  }
  out.uncovered = std::max(0.0, out.setup - static_cast<double>(unionNs) * kS);
  return out;
}

/// Per-iteration superstep critical paths of traced run_mt iterations.
struct IterLayers {
  std::vector<double> expandMs, foldMs, overheadMs;
  double busyNs = 0, wallNs = 0;
};

/// Attributes each exec.expand / exec.fold task span of one batch to the
/// run_mt iteration span containing its start. A superstep's critical path
/// is its busiest thread: the sum of that superstep's task spans recorded
/// on one thread (K tasks share T threads). The first iteration of the
/// batch absorbs the ring re-registration after a reset and is skipped.
void attribute_iterations(const std::vector<trace::EventView>& events, const exec::Image& im,
                          IterLayers& out) {
  std::vector<const trace::EventView*> iters;
  std::size_t numTids = 0;
  for (const trace::EventView& e : events) {
    numTids = std::max<std::size_t>(numTids, e.tid + 1);
    if (e.kind == trace::EventKind::kSpan && named(e.name, im.traceIteration) && e.v1 == 1)
      iters.push_back(&e);  // snapshot order: by start time
  }
  // Task time per (iteration, thread), one table per superstep.
  std::vector<std::uint64_t> expandBusy(iters.size() * numTids, 0),
      foldBusy(iters.size() * numTids, 0);
  for (const trace::EventView& e : events) {
    if (e.kind != trace::EventKind::kSpan) continue;
    const bool expand = named(e.name, "exec.expand");
    if (!expand && !named(e.name, "exec.fold")) continue;
    const auto it = std::upper_bound(
        iters.begin(), iters.end(), e.startNs,
        [](std::uint64_t t, const trace::EventView* i) { return t < i->startNs; });
    if (it == iters.begin()) continue;
    const auto i = static_cast<std::size_t>(it - iters.begin()) - 1;
    if (e.startNs >= iters[i]->startNs + iters[i]->durNs) continue;
    (expand ? expandBusy : foldBusy)[i * numTids + e.tid] += e.durNs;
  }
  for (std::size_t i = 1; i < iters.size(); ++i) {
    const auto row = [&](const std::vector<std::uint64_t>& busy) {
      return std::span(busy).subspan(i * numTids, numTids);
    };
    const double expandCrit = static_cast<double>(std::ranges::max(row(expandBusy)));
    const double foldCrit = static_cast<double>(std::ranges::max(row(foldBusy)));
    const double dur = static_cast<double>(iters[i]->durNs);
    out.expandMs.push_back(expandCrit * 1e-6);
    out.foldMs.push_back(foldCrit * 1e-6);
    out.overheadMs.push_back((dur - expandCrit - foldCrit) * 1e-6);
    for (const auto* busy : {&expandBusy, &foldBusy})
      for (std::uint64_t ns : row(*busy)) out.busyNs += static_cast<double>(ns);
    out.wallNs += dur;
  }
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  idx_t threads = 1;
};

struct Result {
  Ops ops;
  std::vector<Metric> metrics;
};

template <class Pipeline>
Result run_workload(const Options& o, const std::string& path) {
  const Workload& w = *o.w;
  part::PartitionConfig cfg;
  cfg.seed = kStructureSeed;
  cfg.method = w.method;
  cfg.numThreads = o.threads;

  Result res;
  Ops& ops = res.ops;
  std::uint64_t dropped = 0;
  auto take_events = [&dropped] {
    std::vector<trace::EventView> ev = trace::snapshot_events();
    dropped += trace::dropped_count();
    trace::reset();
    return ev;
  };

  // Setup: the traced run times one pipeline for its layers; the untraced
  // run takes the median of several.
  if (o.traced) trace::enable(kTraceCapacity);
  std::optional<Pipeline> pipe;
  Audit audit;
  std::vector<double> setupS;
  part::PhaseSnapshot phases;
  const int reps = o.traced || o.smoke ? 1 : w.setupReps;
  for (int r = 0; r < reps; ++r) {
    pipe.reset();
    // Hand the last repetition's memory back so every repetition starts from
    // the same resident set; this steadies peak_rss_mb across runs.
    malloc_trim(0);
    const part::PhaseSnapshot before = part::phase_timers().snapshot();
    ops.run("pipeline", [&] {
      const Clock::time_point t0 = Clock::now();
      {
        trace::TraceScope s("bench", "e2e.setup");
        pipe.emplace(path, cfg);
      }
      setupS.push_back(since(t0));
      audit = pipe->prepare(o.seed);
      return audit.holds(cfg.epsilon);
    });
    phases = part::phase_timers().snapshot() - before;
  }
  SetupLayers layers;
  if (o.traced) layers = attribute_setup(take_events());
  if (!pipe) return res;

  long retries = 0;
  auto iterate = [&](bool mt, std::vector<double>* ms) {
    exec::ExecStats st;
    ops.run(mt ? "run_mt" : "run", [&] {
      const Clock::time_point t0 = Clock::now();
      if (mt) pipe->run_mt(o.threads, st);
      else pipe->run_serial(st);
      if (ms != nullptr) ms->push_back(1e3 * since(t0));
      retries += st.taskRetries + (st.serialFallback ? 1 : 0);
      return st.wordsSent == audit.objective && pipe->result_ok();
    });
  };
  const double budget = o.seconds;
  const auto until = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  for (int i = 0; i < 3; ++i) {
    iterate(true, nullptr);
    iterate(false, nullptr);
  }

  if (!o.traced) {
    std::vector<double> mtMs, serialMs, blockP99Ms;
    for (const auto end = until(budget); Clock::now() < end;) {
      const std::size_t from = mtMs.size();
      for (int i = 0; i < kBlock; ++i) iterate(true, &mtMs);
      if (mtMs.size() > from)
        blockP99Ms.push_back(percentile({mtMs.begin() + from, mtMs.end()}, 0.99));
      for (int i = 0; i < kBlock; ++i) iterate(false, &serialMs);
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    res.metrics = {
        {"setup_s", median(setupS), "s"},
        {"iter_ms", median(mtMs), "ms"},
        {"iter_p99_ms", median(blockP99Ms), "ms"},
        {"iter_serial_ms", median(serialMs), "ms"},
        {"comm_words", static_cast<double>(audit.objective), "words"},
        {"max_proc_words", static_cast<double>(audit.maxProcWords), "words"},
        {"msgs_per_proc", audit.msgsPerProc, "msgs"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
    return res;
  }

  // Traced run: an untraced run_mt loop, then a traced one read batch by
  // batch; the two medians give the tracing overhead.
  trace::disable();
  std::vector<double> plainMs, tracedMs;
  for (const auto end = until(budget / 2); Clock::now() < end;)
    for (int i = 0; i < kBlock; ++i) iterate(true, &plainMs);
  trace::enable();
  IterLayers it;
  for (const auto end = until(budget / 2); Clock::now() < end;) {
    iterate(true, nullptr);
    for (int i = 0; i < kTracedBatch; ++i) iterate(true, &tracedMs);
    attribute_iterations(take_events(), pipe->image(), it);
  }
  trace::disable();
  ops.run("trace", [&] { return dropped == 0; });

  const double plain = median(plainMs);
  const double traced = median(tracedMs);
  const double mtThreads = static_cast<double>(std::min(o.threads, kParts));
  const double ingestBytes = static_cast<double>(std::filesystem::file_size(path));
  // The geometric splits record no phase timers, so RB busy time is known
  // only when a multilevel bisection ran.
  const bool multilevelRb = phases[part::Phase::kCoarsen] + phases[part::Phase::kInitial] +
                                phases[part::Phase::kRefine] > 0;
  const double rbBusy = phases.total();
  res.metrics = {
      {"sparse.ingest_s", layers.ingest, "s"},
      {"sparse.ingest_mbps", layers.ingest > 0 ? ingestBytes / layers.ingest / 1e6 : 0.0,
       "MB/s"},
      {"models.build_s", layers.modelBuild, "s"},
      {"spgemm.tasks_s", layers.tasks, "s"},
      {"spgemm.schedule_s", w.spgemm ? layers.plan : 0.0, "s"},
      {"partition.partition_s", layers.partition, "s"},
      {"partition.rb_s", layers.rb, "s"},
      {"partition.polish_s", layers.rb > 0 ? layers.partition - layers.rb : 0.0, "s"},
      {"partition.coarsen_s", phases[part::Phase::kCoarsen], "s"},
      {"partition.initial_s", phases[part::Phase::kInitial], "s"},
      {"partition.refine_s", phases[part::Phase::kRefine], "s"},
      {"partition.extract_s", phases[part::Phase::kExtract], "s"},
      {"partition.rb_efficiency",
       multilevelRb && layers.rb > 0 ? rbBusy / (layers.rb * static_cast<double>(o.threads))
                                     : 0.0,
       "ratio"},
      {"partition.levels", static_cast<double>(layers.levels), "count"},
      {"partition.recoveries", static_cast<double>(audit.recoveries), "count"},
      {"partition.degraded", static_cast<double>(audit.degraded), "count"},
      {"spmv.plan_s", w.spgemm ? 0.0 : layers.plan, "s"},
      {"exec.compile_s", layers.compile, "s"},
      {"exec.expand_ms", median(it.expandMs), "ms"},
      {"exec.fold_ms", median(it.foldMs), "ms"},
      {"exec.overhead_ms", median(it.overheadMs), "ms"},
      {"exec.worker_util", it.wallNs > 0 ? it.busyNs / (it.wallNs * mtThreads) : 0.0, "ratio"},
      {"exec.retries", static_cast<double>(retries), "count"},
      {"trace.overhead_pct", plain > 0 ? 100.0 * (traced - plain) / plain : 0.0, "%"},
      {"trace.dropped", static_cast<double>(dropped), "count"},
      {"trace.setup_uncovered_s", layers.uncovered, "s"},
  };
  return res;
}

idx_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max<idx_t>(1, static_cast<idx_t>(sysconf(_SC_NPROCESSORS_ONLN)));
}

const char* perf_status() {
  if (!perf::compiled_in()) return "compiled-out";
  perf::set_enabled(true);
  const bool ok = perf::available();
  perf::set_enabled(false);
  return ok ? "available" : "unavailable";
}

/// Removes the generated matrix file however the run ends.
struct FileGuard {
  std::string path;
  ~FileGuard() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: fghp_e2e --workload NAME --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--commit ID] [--smoke]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  Options o;
  const std::string name = args.flag("workload").value_or("");
  for (const Workload& w : kWorkloads)
    if (name == w.name) o.w = &w;
  if (o.w == nullptr) return usage("unknown or missing --workload");
  const auto workdir = args.flag("workdir");
  if (!workdir) return usage("missing --workdir");
  try {
    o.seed = std::stoull(args.flag("seed").value_or("1"));
    o.seconds = std::stod(args.flag("seconds").value_or("10"));
    o.traced = std::stol(args.flag("trace").value_or("0")) != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  o.smoke = args.has_switch("smoke");

  // T = min(4, nproc) threads for partitioning and run_mt. FGHP_THREADS
  // sizes the shared pool before anything creates it.
  const idx_t nproc = online_cpus();
  o.threads = std::min<idx_t>(4, nproc);
  setenv("FGHP_THREADS", std::to_string(o.threads).c_str(), 1);
  const double scale = o.w->scale * (o.smoke ? kSmokeScale : 1.0);

  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"scale\": %g, \"trace\": %d, "
      "\"partition_seed\": %llu, \"smoke\": %s, \"commit\": \"%s\", \"nproc\": %d, "
      "\"threads\": %d, \"l3_bytes\": %ld, \"perf_counters\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      o.w->name, static_cast<unsigned long long>(o.seed), scale, o.traced ? 1 : 0,
      static_cast<unsigned long long>(kStructureSeed),
      o.smoke ? "true" : "false", args.flag("commit").value_or("unknown").c_str(),
      static_cast<int>(nproc), static_cast<int>(o.threads), sysconf(_SC_LEVEL3_CACHE_SIZE),
      perf_status(), FGHP_E2E_COMPILER, FGHP_E2E_BUILD_TYPE);

  Result res;
  try {
    std::filesystem::create_directories(*workdir);
    FileGuard file{(std::filesystem::path(*workdir) /
                    (std::string(o.w->name) + "-" + std::to_string(o.seed) + "-" +
                     std::to_string(getpid()) + ".mtx"))
                       .string()};
    sparse::write_matrix_market_file(file.path, make_input(*o.w, scale, o.seed));
    res = o.w->spgemm ? run_workload<SpgemmPipeline>(o, file.path)
                      : run_workload<SpmvPipeline>(o, file.path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const bool correct = res.ops.failed == 0 && !res.metrics.empty();
  for (const Metric& m : res.metrics)
    std::printf("%-26s %.6g %s\n", m.name, m.value, m.unit);
  std::printf("ops_attempted %ld\nops_failed %ld\n", res.ops.attempted, res.ops.failed);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", res.ops.attempted, res.ops.failed);
  for (std::size_t i = 0; i < res.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                res.metrics[i].name, res.metrics[i].value, res.metrics[i].unit);
  std::printf("}}\n");
  return correct ? 0 : 1;
}
