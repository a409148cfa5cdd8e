// Umbrella command-line tool:
//
//   fghp_tool gen <suite-name> --out m.mtx [--scale 1.0] [--seed 1]
//       materialize a synthetic suite analog as a Matrix Market file
//   fghp_tool stats <m.mtx>
//       Table 1-style statistics plus bandwidth before/after RCM
//   fghp_tool partition <m.mtx> --model <finegrain|hyper1d|rownet|graph|
//       checkerboard|jagged|orthogonal> --k 16 [--eps 0.03] [--seed 1]
//       [--method multilevel|geometric|geometric-fm] [--threads 0]
//       [--balance-vectors] [--strict] [--timeout-ms MS] [--no-degrade]
//       [--json] [--out d.decomp]
//       decompose a Matrix Market file (a generated analog or a real UF /
//       netlib matrix) and report the Table 2 metrics: total and max
//       per-processor volume, average and max messages per processor, load
//       imbalance (one JSON object with --json). --method picks the
//       fine-grain engine (DESIGN.md §15); the fast paths require
//       --model finegrain
//   fghp_tool simulate <m.mtx> <d.decomp> [--reps 10] [--threads 0]
//       load a saved decomposition, verify it, execute repeated distributed
//       SpMVs (threaded) and report traffic + timing
//   fghp_tool spgemm <a.mtx> [b.mtx | --b-matrix b.mtx] --k 16 [--eps 0.03]
//       [--seed 1] [--threads 0] [--reps 10]
//       fine-grain partition of C = A*B (A*A when b.mtx is omitted),
//       report cutsize == communication volume, then execute repeated
//       distributed multiplies through the generic core and verify the
//       result against the reference multiply
//   fghp_tool report <report.json>
//       render a saved RunReport (written by --report-out) as tables
//   fghp_tool faults
//       list every fault-injection site (see FGHP_FAULT_SPEC)
//
// Every command also takes --trace-out FILE|- (Chrome trace-event JSON of
// the whole invocation; FGHP_TRACE=FILE is the no-flag equivalent),
// --metrics-out FILE|- (flat metrics JSON; "-" = stdout), --report-out
// FILE|- (structured RunReport JSON — phase timings, parallel efficiency,
// modeled-vs-measured volume audit; implies tracing so the report has
// phases). Any option a command does not take is a usage error (exit 2).
//
// Exit codes follow fghp::ErrorCode: 0 success, 1 unknown error, 2 usage,
// 3 io, 4 format, 5 invariant, 6 infeasible, 7 injected fault, 8 cancelled,
// 9 deadline exceeded. Errors and recovery warnings go to stderr; results go
// to stdout. Observability files are written even when the command fails,
// and the command's typed-error exit code always wins: a trace of a failing
// run is exactly what you want to look at, and an export failure on top of
// it only adds a stderr line. Only on an otherwise successful run does a
// failed export turn into exit code 3 (io).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "comm/volume.hpp"
#include "models/checkerboard.hpp"
#include "models/decomp_io.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "models/jagged.hpp"
#include "models/orthogonal.hpp"
#include "models/vector_assign.hpp"
#include "partition/hg/partitioner.hpp"
#include "spgemm/finegrain.hpp"
#include "spgemm/plan.hpp"
#include "spgemm/tasks.hpp"
#include "spgemm/volume.hpp"
#include "spmv/compiled.hpp"
#include "spmv/executor.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "sparse/mmio.hpp"
#include "sparse/reorder.hpp"
#include "sparse/stats.hpp"
#include "sparse/testsuite.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/observability.hpp"
#include "util/options.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fghp;

int usage() {
  std::fprintf(stderr,
               "usage: fghp_tool <gen|stats|partition|simulate|spgemm|report|faults> ...\n"
               "  gen <suite-name> --out m.mtx [--scale S] [--seed N]\n"
               "  stats <m.mtx>\n"
               "  partition <m.mtx> --model M --k K [--eps E] [--seed N]\n"
               "            [--method multilevel|geometric|geometric-fm]\n"
               "            [--threads T] [--balance-vectors] [--strict] [--json]\n"
               "            [--fault-spec SPEC] [--timeout-ms MS] [--no-degrade]\n"
               "            [--out d.decomp]\n"
               "            (the matrix must be square and 1 <= K <= 4096, else exit 2;\n"
               "             --method other than multilevel needs --model finegrain)\n"
               "  simulate <m.mtx> <d.decomp> [--reps R] [--threads T]\n"
               "            [--timeout-ms MS]\n"
               "  spgemm <a.mtx> [b.mtx | --b-matrix b.mtx] --k K [--eps E] [--seed N]\n"
               "            [--threads T] [--reps R] [--timeout-ms MS]\n"
               "            (1 <= K <= 4096, else exit 2)\n"
               "  report <report.json>   (render a saved --report-out file)\n"
               "  faults\n"
               "every command also accepts (any other option is a usage error):\n"
               "  --trace-out FILE    Chrome trace-event JSON ('-' = stdout;\n"
               "                      FGHP_TRACE=FILE is the no-flag equivalent)\n"
               "  --metrics-out FILE  flat metrics JSON; '-' writes to stdout\n"
               "  --report-out FILE   structured RunReport JSON ('-' = stdout):\n"
               "                      phase wall/busy/critical-path times, parallel\n"
               "                      efficiency, modeled-vs-measured volume audit\n"
               "  --timeout-ms MS     partition/simulate/spgemm: deadline on the\n"
               "                      whole command's work\n"
               "                      (or FGHP_TIMEOUT_MS=MS; flag wins)\n"
               "partition degrades gracefully on an expiring deadline (still a\n"
               "valid, balanced decomposition; --no-degrade turns the deadline\n"
               "into a hard exit-9 error); simulate always errors on expiry.\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 io, 4 format,\n"
               "            5 invariant, 6 infeasible, 7 injected fault,\n"
               "            8 cancelled, 9 deadline exceeded\n"
               "(observability files are written even on failure; the typed\n"
               " error code wins over any export failure)\n");
  return static_cast<int>(ErrorCode::kUsage);
}

/// Resolves the command's deadline: --timeout-ms beats FGHP_TIMEOUT_MS beats
/// none (-1, which with_deadline_ms maps to an inactive token).
long resolve_timeout_ms(const ArgParser& args) {
  if (const auto flag = args.flag("timeout-ms")) return std::stol(*flag);
  if (const char* env = std::getenv("FGHP_TIMEOUT_MS")) return std::stol(env);
  return -1;
}

/// Rejects any option outside the command's own and the observability flags
/// every command takes (usage error, exit 2).
void check_options(const ArgParser& args, std::vector<std::string_view> own) {
  own.insert(own.end(), {"trace-out", "metrics-out", "report-out"});
  args.reject_unknown(own);
}

/// --k, range-checked before any matrix is read: the volume analysis that
/// follows every partition takes at most comm::kMaxProcs processors, and a
/// wider value must not wrap into a small idx_t. Out of range is a usage
/// error (exit 2).
idx_t parse_k(const ArgParser& args) {
  const long k = args.flag_long("k", 16);
  if (k < 1 || k > comm::kMaxProcs)
    throw std::invalid_argument("--k must be in [1, " + std::to_string(comm::kMaxProcs) + "]");
  return static_cast<idx_t>(k);
}

int cmd_faults(const ArgParser& args) {
  check_options(args, {});
  for (const auto& site : fault::known_sites()) std::printf("%s\n", site.c_str());
  return 0;
}

int cmd_report(const ArgParser& args) {
  check_options(args, {});
  if (args.positional().size() < 2) return usage();
  report::render_file(args.positional()[1], std::cout);
  return 0;
}

std::vector<long long> to_ll(const std::vector<weight_t>& v) {
  return {v.begin(), v.end()};
}

int cmd_gen(const ArgParser& args) {
  check_options(args, {"out", "scale", "seed"});
  if (args.positional().size() < 2) return usage();
  const std::string name = args.positional()[1];
  const auto out = args.flag("out");
  if (!out) {
    std::fprintf(stderr, "gen: --out required\n");
    return 2;
  }
  const double scale = std::stod(args.flag("scale").value_or("1.0"));
  const auto seed = static_cast<std::uint64_t>(args.flag_long("seed", 1));
  const sparse::Csr a = sparse::make_matrix(name, seed, scale);
  sparse::write_matrix_market_file(*out, a);
  std::printf("wrote %s: %s\n", out->c_str(),
              sparse::to_string(sparse::compute_stats(a)).c_str());
  return 0;
}

int cmd_stats(const ArgParser& args) {
  check_options(args, {});
  if (args.positional().size() < 2) return usage();
  const sparse::Csr a = sparse::read_matrix_market_file(args.positional()[1]);
  const sparse::MatrixStats s = sparse::compute_stats(a);
  std::printf("%s\n", sparse::to_string(s).c_str());
  std::printf("  rows %d, cols %d, nnz %d\n", s.numRows, s.numCols, s.nnz);
  std::printf("  per-row    min %d max %d avg %.2f\n", s.minPerRow, s.maxPerRow, s.avgPerRow);
  std::printf("  per-col    min %d max %d avg %.2f\n", s.minPerCol, s.maxPerCol, s.avgPerCol);
  std::printf("  diagonal entries %d / %d\n", s.numDiagEntries, std::min(s.numRows, s.numCols));
  if (a.is_square()) {
    const idx_t bw = sparse::bandwidth(a);
    const sparse::Csr r = sparse::permute_symmetric(a, sparse::rcm_ordering(a));
    std::printf("  bandwidth %d (RCM: %d)\n", bw, sparse::bandwidth(r));
  }
  return 0;
}

int cmd_partition(const ArgParser& args, report::Builder& rep) {
  check_options(args, {"model", "k", "eps", "seed", "method", "threads", "balance-vectors",
                       "strict", "json", "fault-spec", "timeout-ms", "no-degrade", "out"});
  if (args.positional().size() < 2) return usage();
  WallTimer totalTimer;  // whole command: read + model build + partition + analysis
  const idx_t k = parse_k(args);
  const sparse::Csr a = sparse::read_matrix_market_file(args.positional()[1]);
  if (!a.is_square()) {
    std::fprintf(stderr, "partition: matrix must be square\n");
    return 2;
  }
  const std::string modelName = args.flag("model").value_or("finegrain");
  part::PartitionConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.flag_long("seed", 1));
  if (const auto eps = args.flag("eps")) cfg.epsilon = std::stod(*eps);
  // 0 = auto (FGHP_THREADS / hardware); the partition is identical at any
  // thread count, so --threads only trades wall time for cores.
  cfg.numThreads = static_cast<idx_t>(args.flag_long("threads", 0));
  if (args.has_switch("strict")) cfg.validateLevel = part::ValidateLevel::kStrict;
  cfg.faultSpec = args.flag("fault-spec").value_or("");
  cfg.cancel = cancel::CancelToken::with_deadline_ms(resolve_timeout_ms(args));
  if (args.has_switch("no-degrade")) cfg.degradeOnDeadline = false;
  const std::string methodName = args.flag("method").value_or("multilevel");
  if (!part::parse_method(methodName, cfg.method)) {
    std::fprintf(stderr, "partition: unknown method '%s'\n", methodName.c_str());
    return 2;
  }
  if (cfg.method != part::PartitionMethod::kMultilevel && modelName != "finegrain") {
    std::fprintf(stderr, "partition: --method %s requires --model finegrain\n",
                 methodName.c_str());
    return 2;
  }
  const bool json = args.has_switch("json");
  rep.info("matrix", args.positional()[1]);
  rep.info("model", modelName);
  rep.info("method", methodName);
  rep.info("k", static_cast<long long>(k));

  model::ModelRun run;
  if (modelName == "finegrain") {
    run = model::run_finegrain(a, k, cfg);
  } else if (modelName == "hyper1d") {
    run = model::run_hypergraph1d(a, k, cfg, model::Line::kRow);
  } else if (modelName == "rownet") {
    run = model::run_hypergraph1d(a, k, cfg, model::Line::kCol);
  } else if (modelName == "graph") {
    run = model::run_graph_model(a, k, cfg);
  } else if (modelName == "checkerboard") {
    run.decomp = model::checkerboard_decompose_k(a, k);
  } else if (modelName == "jagged") {
    run = model::run_jagged_k(a, k, cfg);
  } else if (modelName == "orthogonal") {
    run = model::run_orthogonal_k(a, k, cfg);
  } else {
    std::fprintf(stderr, "partition: unknown model '%s'\n", modelName.c_str());
    return 2;
  }

  if (args.has_switch("balance-vectors")) {
    const model::VectorAssignResult r = model::balance_vector_owners(a, run.decomp);
    if (!json)
      std::printf("vector balancing: max per-proc words %lld -> %lld\n",
                  static_cast<long long>(r.maxProcWordsBefore),
                  static_cast<long long>(r.maxProcWordsAfter));
    run.decomp = r.decomp;
  }

  const comm::CommStats s = comm::analyze(a, run.decomp);
  const model::LoadStats loads = model::compute_loads(a, run.decomp);
  // Modeled side of the report's volume audit: no SpMV runs here, so the
  // measured deltas stay zero and the audit holds trivially (0 iterations);
  // the per-processor matrix and imbalance stats still land in the report.
  rep.set_proc_comm(to_ll(s.sendWords), to_ll(s.recvWords));
  rep.expect_volume("spmv", s.expandWords, s.foldWords,
                    static_cast<long long>(s.expandMessages) + s.foldMessages);
  if (json) {
    json::Writer(std::cout)
        .begin_object()
        .member("model", modelName)
        .member("method", methodName)
        .member("k", k)
        .member("partition_seconds", run.partitionSeconds)
        .member("total_seconds", totalTimer.seconds())
        .member("objective", run.objective)
        .member("recoveries", run.numRecoveries)
        .member("degraded", run.numDegraded)
        .member("total_volume_words", s.totalWords)
        .member("max_proc_words", s.maxProcWords)
        .member("expand_words", s.expandWords)
        .member("fold_words", s.foldWords)
        .member("avg_messages_per_proc", s.avgMessagesPerProc)
        .member("max_messages_per_proc", s.maxMessagesPerProc)
        .member("load_imbalance_percent", loads.percentImbalance)
        .end_object();
  } else {
    std::printf("model=%s method=%s K=%d time=%.3fs total=%.3fs recoveries=%d degraded=%d\n",
                modelName.c_str(), methodName.c_str(), static_cast<int>(k),
                run.partitionSeconds, totalTimer.seconds(),
                static_cast<int>(run.numRecoveries), static_cast<int>(run.numDegraded));
    std::printf("  total volume %lld words (%.3f scaled); max/proc %lld (%.3f)\n",
                static_cast<long long>(s.totalWords), s.scaledTotal(a.num_rows()),
                static_cast<long long>(s.maxProcWords), s.scaledMax(a.num_rows()));
    std::printf("  expand/fold %lld / %lld; avg msgs/proc %.2f (max %d); "
                "load imbalance %.2f%%\n",
                static_cast<long long>(s.expandWords), static_cast<long long>(s.foldWords),
                s.avgMessagesPerProc, static_cast<int>(s.maxMessagesPerProc),
                loads.percentImbalance);
  }

  if (const auto out = args.flag("out")) {
    model::write_decomposition_file(*out, run.decomp);
    if (!json) std::printf("decomposition written to %s\n", out->c_str());
  }
  return 0;
}

int cmd_simulate(const ArgParser& args, report::Builder& rep) {
  check_options(args, {"reps", "threads", "timeout-ms"});
  if (args.positional().size() < 3) return usage();
  const sparse::Csr a = sparse::read_matrix_market_file(args.positional()[1]);
  const model::Decomposition d = model::read_decomposition_file(args.positional()[2]);
  model::validate(a, d);  // throws if shapes disagree with the matrix
  const auto reps = static_cast<int>(args.flag_long("reps", 10));
  const auto threads = static_cast<idx_t>(args.flag_long("threads", 0));
  rep.info("matrix", args.positional()[1]);
  rep.info("decomp", args.positional()[2]);
  rep.info("k", static_cast<long long>(d.numProcs));
  rep.info("reps", static_cast<long long>(reps));

  // Arm the modeled-vs-measured audit before any iteration runs: the
  // executor's spmv.* metric deltas must equal these comm::analyze totals
  // times the iteration count on every clean path.
  const comm::CommStats cs = comm::analyze(a, d);
  rep.set_proc_comm(to_ll(cs.sendWords), to_ll(cs.recvWords));
  rep.expect_volume("spmv", cs.expandWords, cs.foldWords,
                    static_cast<long long>(cs.expandMessages) + cs.foldMessages);

  // One deadline covers plan build, compile, and every iteration; expiry
  // surfaces as a typed exit-9 error (no degradation ladder on this path).
  const cancel::CancelToken token =
      cancel::CancelToken::with_deadline_ms(resolve_timeout_ms(args));

  const spmv::SpmvPlan plan = spmv::build_plan(a, d, token);
  exec::validate_schedule_or_throw(plan);  // d came from a file: distrust it
  Rng rng(123);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.uniform01();

  // Compile once, iterate allocation-free: the repeated-multiply loop an
  // iterative solver would run.
  spmv::CompileOptions copts;
  copts.cancel = token;
  spmv::ExecSession session(plan, copts);
  session.set_cancel(token);
  spmv::ExecStats stats;
  WallTimer timer;
  std::vector<double> y;
  for (int r = 0; r < reps; ++r) session.run_mt(x, y, threads, &stats);
  const double wall = timer.millis() / reps;

  const auto yRef = spmv::multiply(a, x);
  double maxErr = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i)
    maxErr = std::max(maxErr, std::abs(y[i] - yRef[i]));

  std::printf("simulate: K=%d, %d reps, %.2f ms per multiply (threaded)\n", d.numProcs,
              reps, wall);
  std::printf("  traffic per multiply: %lld words, %d messages\n",
              static_cast<long long>(stats.wordsSent), stats.messagesSent);
  if (stats.taskRetries > 0 || stats.serialFallback) {
    std::printf("  recovery: %d task retries%s\n", stats.taskRetries,
                stats.serialFallback ? ", fell back to the serial executor" : "");
  }
  std::printf("  max |y - y_ref| = %.3e\n", maxErr);
  return maxErr < 1e-8 ? 0 : 1;
}

int cmd_spgemm(const ArgParser& args, report::Builder& rep) {
  check_options(args, {"b-matrix", "k", "eps", "seed", "threads", "reps", "timeout-ms"});
  if (args.positional().size() < 2) return usage();
  const idx_t k = parse_k(args);
  const sparse::Csr a = sparse::read_matrix_market_file(args.positional()[1]);
  // B != A enters either positionally or via --b-matrix (the flag wins);
  // omitted = the classic A*A squaring.
  std::string bPath;
  if (const auto bf = args.flag("b-matrix")) bPath = *bf;
  else if (args.positional().size() >= 3) bPath = args.positional()[2];
  const sparse::Csr b = bPath.empty() ? a : sparse::read_matrix_market_file(bPath);
  const auto reps = static_cast<int>(args.flag_long("reps", 10));
  const auto threads = static_cast<idx_t>(args.flag_long("threads", 0));
  part::PartitionConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.flag_long("seed", 1));
  if (const auto eps = args.flag("eps")) cfg.epsilon = std::stod(*eps);
  cfg.numThreads = static_cast<idx_t>(args.flag_long("threads", 0));
  const cancel::CancelToken token =
      cancel::CancelToken::with_deadline_ms(resolve_timeout_ms(args));
  cfg.cancel = token;

  const spgemm::TaskGraph t = spgemm::build_tasks(a, b);
  std::printf("spgemm: %dx%d * %dx%d -> %d result entries, %d scalar tasks\n",
              a.num_rows(), a.num_cols(), b.num_rows(), b.num_cols(), t.num_c(),
              t.num_tasks());

  rep.info("matrix", args.positional()[1]);
  if (!bPath.empty()) rep.info("b_matrix", bPath);
  rep.info("k", static_cast<long long>(k));
  rep.info("reps", static_cast<long long>(reps));

  const spgemm::SpgemmRun run = spgemm::run_spgemm_finegrain(t, k, cfg);
  const spgemm::SpgemmCommStats s = spgemm::analyze(t, run.decomp);
  rep.set_proc_comm(to_ll(s.sendWords), to_ll(s.recvWords));
  rep.expect_volume("spgemm",
                    static_cast<long long>(s.expandAWords) + s.expandBWords,
                    s.foldCWords, static_cast<long long>(s.totalMessages));
  std::printf("model=finegrain-spgemm K=%d time=%.3fs recoveries=%d degraded=%d\n",
              static_cast<int>(k), run.partitionSeconds,
              static_cast<int>(run.numRecoveries), static_cast<int>(run.numDegraded));
  std::printf("  cutsize %lld == volume %lld words (expand-A %lld, expand-B %lld, "
              "fold-C %lld); max/proc %lld\n",
              static_cast<long long>(run.cutsize), static_cast<long long>(s.totalWords),
              static_cast<long long>(s.expandAWords),
              static_cast<long long>(s.expandBWords),
              static_cast<long long>(s.foldCWords),
              static_cast<long long>(s.maxProcWords));
  if (run.cutsize != s.totalWords) {
    std::fprintf(stderr, "spgemm: cutsize does not price the volume exactly\n");
    return static_cast<int>(ErrorCode::kInvariant);
  }

  spgemm::CompileOptions copts;
  copts.cancel = token;
  spgemm::SpgemmSession session(t, run.decomp, copts);
  session.set_cancel(token);
  spgemm::ExecStats stats;
  WallTimer timer;
  std::vector<double> c;
  for (int r = 0; r < reps; ++r)
    session.run_mt(a.values(), b.values(), c, threads, &stats);
  const double wall = timer.millis() / reps;

  const std::vector<double> cRef = spgemm::reference_multiply(a, b, t);
  double maxErr = 0.0;
  for (std::size_t g = 0; g < c.size(); ++g)
    maxErr = std::max(maxErr, std::abs(c[g] - cRef[g]));

  std::printf("  %d reps, %.2f ms per multiply (threaded)\n", reps, wall);
  std::printf("  traffic per multiply: %lld words, %d messages\n",
              static_cast<long long>(stats.wordsSent), stats.messagesSent);
  if (stats.taskRetries > 0 || stats.serialFallback) {
    std::printf("  recovery: %d task retries%s\n", stats.taskRetries,
                stats.serialFallback ? ", fell back to the serial executor" : "");
  }
  std::printf("  max |C - C_ref| = %.3e\n", maxErr);
  return maxErr < 1e-8 ? 0 : 1;
}

void print_warnings() {
  for (const auto& w : fghp::drain_warnings())
    std::fprintf(stderr, "warning: %s\n", w.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& cmd = args.positional().front();
  // Constructed before any work: the report builder baselines the metrics
  // registry and the clocks, so the report covers exactly this command.
  Observability obs(args, "fghp_tool", cmd);
  int rc = -1;
  try {
    if (cmd == "gen") rc = cmd_gen(args);
    if (cmd == "stats") rc = cmd_stats(args);
    if (cmd == "partition") rc = cmd_partition(args, obs.report());
    if (cmd == "simulate") rc = cmd_simulate(args, obs.report());
    if (cmd == "spgemm") rc = cmd_spgemm(args, obs.report());
    if (cmd == "report") rc = cmd_report(args);
    if (cmd == "faults") rc = cmd_faults(args);
  } catch (const std::exception& e) {
    print_warnings();
    return obs.fail(e);
  }
  print_warnings();
  if (rc == -1) rc = usage();
  return obs.finish(rc);
}
