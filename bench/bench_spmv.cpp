// Ablation A5 — does lower communication volume buy SpMV time? — plus the
// per-iteration throughput of the compiled execution image.
//
// Section (a): for each model decomposition, run the threaded BSP executor
// and evaluate the alpha-beta-gamma cost model (a classic distributed-memory
// machine where the paper's volumes dominate).
//
// Section (b): the iterative-solver view. For each matrix and K, a finegrain
// decomposition is lowered once (spmv::compile_plan) and the repeated
// y = A x iteration is timed two ways: the compiled serial session and the
// compiled threaded session. Medians over FGHP_REPS iterations after
// warmup. GFLOP/s counts 2 nnz flops per iteration; effective GB/s models
// the iteration's memory traffic as 12 B per nonzero (value + local column
// index) + 8 B per scratch/vector element touched (x gather, partials, y)
// + 16 B per communicated word (flat-buffer write and read).
//
// Section (c): the roofline view. A measured STREAM-triad baseline gives
// the machine's practical bandwidth ceiling; large generated matrices
// (checkerboard-decomposed — setup cost, not execution, is what the
// multilevel partitioner would add) are then run through the compiled
// session twice, with and without the second-level cache reordering, and
// each run reports achieved GB/s and its fraction of the STREAM ceiling.
// `gbps_speedup` is the reorder-on / reorder-off bandwidth ratio — the
// quantity the perf-smoke gate in scripts/check.sh tracks.
//
// Flags: --json <path> writes all sections machine-readably (the perf-
// trajectory artifact BENCH_spmv.json is seeded from this).
// Knobs: FGHP_SCALE, FGHP_MATRICES, FGHP_K, FGHP_REPS, FGHP_STREAM_MB.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "models/checkerboard.hpp"
#include "sparse/generators.hpp"
#include "sparse/reorder.hpp"
#include "spmv/compiled.hpp"
#include "spmv/costmodel.hpp"
#include "spmv/plan.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fghp;

std::vector<double> random_x(idx_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform01();
  return x;
}

/// Median per-iteration milliseconds of `iterate`, over `reps` samples after
/// two warmup calls. Each sample batches enough iterations to outlast clock
/// jitter on small matrices.
template <typename Fn>
double time_iteration_ms(int reps, Fn&& iterate) {
  iterate();
  WallTimer est;
  iterate();
  const double estMs = est.millis();
  const int inner = estMs >= 0.5 ? 1 : static_cast<int>(0.5 / (estMs > 1e-6 ? estMs : 1e-6)) + 1;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    for (int i = 0; i < inner; ++i) iterate();
    samples.push_back(t.millis() / inner);
  }
  return bench::median(std::move(samples));
}

/// Roofline workloads: large generated matrices where the iteration is
/// memory-bound. stencil2d arrives in its natural (near-optimal) order and
/// checks the reorder never regresses a good ordering; the shuffled stencil
/// and the geometric matrix arrive in orders with no locality at all — the
/// state a real matrix is in after partitioning scatters its rows — and the
/// cache reorder has to win the locality back; skewed-lp is the paper's
/// LP-matrix class.
sparse::Csr roofline_matrix(const std::string& name, double scale) {
  if (name == "stencil2d" || name == "stencil2d-shuffled") {
    // ~90M nnz at scale 1/2 — the x vector alone (144 MB) overflows even a
    // large server L3, so the baseline's scattered accesses go to DRAM.
    const auto side = std::max<idx_t>(static_cast<idx_t>(6000.0 * std::sqrt(scale)), 64);
    sparse::Csr a = sparse::stencil2d(side, side);
    if (name == "stencil2d") return a;
    Rng rng(99);
    return sparse::permute_symmetric(a, rng.permutation(a.num_rows()));
  }
  if (name == "geometric") {
    sparse::GeometricParams g;
    g.n = std::max<idx_t>(static_cast<idx_t>(16000000.0 * scale), 4096);
    g.avgOffDiagDeg = 8.0;
    return sparse::geometric_matrix(g, 5);
  }
  sparse::SkewedParams p;
  p.n = std::max<idx_t>(static_cast<idx_t>(2000000.0 * scale), 4096);
  p.targetNnz = p.n * 10;
  p.numBlocks = 16;
  p.couplingWidth = 64;
  return sparse::skewed_square(p, 17);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fghp;
  const ArgParser args(argc, argv);
  Observability obs(args, "bench_spmv", "bench");
  bench::BenchEnv env = bench::load_env();
  if (!env_str("FGHP_MATRICES")) env.matrices = {"sherman3", "ken-11", "cq9"};
  const auto reps = static_cast<int>(env_long("FGHP_REPS", 20));
  const idx_t K0 = env.kValues.empty() ? 16 : env.kValues.front();

  bench::JsonWriter json;
  json.scalar("bench", std::string("spmv"));
  json.scalar("scale", env.scale);
  json.scalar("reps", static_cast<long long>(reps));

  std::printf(
      "Ablation A5 — simulated SpMV by model (K=%d, scale=%.2f, %d repetitions)\n"
      "'est par' is the alpha-beta-gamma BSP estimate; 'mt wall' is measured wall time\n"
      "of the threaded compiled session (shared-memory, so communication is cheap here —\n"
      "the cost model is what reflects the paper's distributed setting).\n\n",
      static_cast<int>(K0), env.scale, reps);

  Table t({"matrix", "model", "volume[w]", "est par[ms]", "est speedup", "mt wall[ms]"});
  for (const auto& name : env.matrices) {
    const sparse::Csr a = sparse::make_matrix(name, 1, env.scale);
    const std::vector<double> x = random_x(a.num_cols(), 7);

    auto eval = [&](const char* label, const model::Decomposition& d) {
      const comm::CommStats s = comm::analyze(a, d);
      const spmv::CostEstimate est = spmv::estimate_cost(a, d, s);
      spmv::ExecSession session(spmv::build_plan(a, d));
      std::vector<double> y;
      WallTimer timer;
      for (int r = 0; r < reps; ++r) session.run_mt(x, y);
      const double wall = timer.millis() / reps;
      t.add_row({name, label, Table::num(static_cast<long long>(s.totalWords)),
                 Table::num(est.totalSeconds * 1e3, 3), Table::num(est.speedup, 1),
                 Table::num(wall, 2)});
      json.add("models")
          .field("matrix", name)
          .field("model", std::string(label))
          .field("k", K0)
          .field("volume_words", static_cast<long long>(s.totalWords))
          .field("est_par_ms", est.totalSeconds * 1e3)
          .field("mt_wall_ms", wall);
    };

    part::PartitionConfig cfg;
    eval("graph-1d", model::run_graph_model(a, K0, cfg).decomp);
    eval("hyper-1d", model::run_hypergraph1d(a, K0, cfg).decomp);
    eval("finegrain-2d", model::run_finegrain(a, K0, cfg).decomp);
    eval("checkerboard", model::checkerboard_decompose_k(a, K0));
    t.add_separator();
  }
  t.print();

  std::printf(
      "\nPer-iteration y = A x throughput, finegrain decomposition (median of %d)\n"
      "'compiled' is the local-indexed ExecSession (serial / threaded).\n\n",
      reps);

  Table tp({"matrix", "K", "nnz", "words", "compiled[ms]", "mt[ms]", "GFLOP/s",
            "GB/s"});
  for (const auto& name : env.matrices) {
    const sparse::Csr a = sparse::make_matrix(name, 1, env.scale);
    const std::vector<double> x = random_x(a.num_cols(), 11);
    for (idx_t K : env.kValues) {
      part::PartitionConfig cfg;
      const model::ModelRun mrun = model::run_finegrain(a, K, cfg);
      const spmv::SpmvPlan plan = spmv::build_plan(a, mrun.decomp);
      const weight_t words = plan.total_words();

      spmv::ExecSession session(plan);
      std::vector<double> y;
      const double compiledMs = time_iteration_ms(reps, [&] { session.run(x, y); });
      const double mtMs = time_iteration_ms(reps, [&] { session.run_mt(x, y); });

      const auto& c = session.compiled();
      const double flops = 2.0 * static_cast<double>(a.nnz());
      const double bytes =
          12.0 * static_cast<double>(a.nnz()) +
          8.0 * static_cast<double>(c.in[0].off.back() + c.out.off.back() + c.out.size) +
          16.0 * static_cast<double>(words);
      const double gflops = flops / (compiledMs * 1e6);
      const double gbps = bytes / (compiledMs * 1e6);

      tp.add_row({name, Table::num(static_cast<long long>(K)),
                  Table::num(static_cast<long long>(a.nnz())),
                  Table::num(static_cast<long long>(words)), Table::num(compiledMs, 3),
                  Table::num(mtMs, 3), Table::num(gflops, 2), Table::num(gbps, 2)});
      json.add("runs")
          .field("matrix", name)
          .field("k", K)
          .field("nnz", static_cast<long long>(a.nnz()))
          .field("words", static_cast<long long>(words))
          .field("compiled_ms", compiledMs)
          .field("compiled_mt_ms", mtMs)
          .field("compiled_gflops", gflops)
          .field("compiled_gbps", gbps);
    }
    tp.add_separator();
  }
  tp.print();

  // --- section (c): roofline ------------------------------------------------
  const auto streamMb = env_long("FGHP_STREAM_MB", 32);
  const std::size_t streamDoubles =
      static_cast<std::size_t>(streamMb) * 1024 * 1024 / sizeof(double);
  const double streamGbps = bench::stream_triad_gbps(streamDoubles, 10);
  json.scalar("stream_gbps", streamGbps);

  std::printf(
      "\nRoofline — compiled serial session vs STREAM triad (%lld MB/array: %.2f GB/s)\n"
      "Large generated matrices, checkerboard K=16. 'no-reorder' disables the\n"
      "second-level cache reordering (CompileOptions::cacheReorder = false);\n"
      "outputs of the two images are verified bit-identical before timing.\n\n",
      static_cast<long long>(streamMb), streamGbps);

  const int rooflineReps = std::min(reps, 5);
  // Per-matrix K lists. stencil2d arrives well ordered (the reorder must
  // back off); the shuffled stencil at K=1 is the DRAM-bound headline while
  // at K=16 the checkerboard blocks of a scrambled matrix are sub-
  // percolation fragments with nothing to recover; geometric is the classic
  // RCM case; skewed-lp is the paper's LP class (cache-resident here).
  struct RooflineCase { const char* matrix; std::vector<idx_t> ks; };
  const std::vector<RooflineCase> cases = {
      {"stencil2d", {16}},
      {"stencil2d-shuffled", {1, 16}},
      {"geometric", {1}},
      {"skewed-lp", {16}},
  };
  Table tr({"matrix", "rows", "nnz", "no-reorder[ms]", "reorder[ms]", "mt[ms]",
            "GB/s base", "GB/s reord", "speedup", "% of STREAM"});
  for (const RooflineCase& rc : cases) {
    const char* mname = rc.matrix;
    const sparse::Csr a = roofline_matrix(mname, env.scale);
    for (idx_t kRoof : rc.ks) {
    const model::Decomposition d = model::checkerboard_decompose_k(a, kRoof);
    const spmv::SpmvPlan plan = spmv::build_plan(a, d);
    spmv::validate_plan_or_throw(plan);
    const std::vector<double> x = random_x(a.num_cols(), 23);

    spmv::CompileOptions noReorder;
    noReorder.cacheReorder = false;
    spmv::ExecSession reordered(plan);
    spmv::ExecSession baseline(plan, noReorder);
    std::vector<double> y, yBase;
    reordered.run(x, y);
    baseline.run(x, yBase);
    if (y != yBase) {
      std::fprintf(stderr, "roofline: %s reordered image diverged from baseline\n", mname);
      return 1;
    }

    const double baseMs = time_iteration_ms(rooflineReps, [&] { baseline.run(x, yBase); });
    const double reordMs = time_iteration_ms(rooflineReps, [&] { reordered.run(x, y); });
    const double mtMs = time_iteration_ms(rooflineReps, [&] { reordered.run_mt(x, y); });

    const auto& c = reordered.compiled();
    const double bytes =
        12.0 * static_cast<double>(a.nnz()) +
        8.0 * static_cast<double>(c.in[0].off.back() + c.out.off.back() + c.out.size) +
        16.0 * static_cast<double>(plan.total_words());
    const double gbpsBase = bytes / (baseMs * 1e6);
    const double gbps = bytes / (reordMs * 1e6);
    const double gflops = 2.0 * static_cast<double>(a.nnz()) / (reordMs * 1e6);
    const double speedup = reordMs > 0.0 ? baseMs / reordMs : 0.0;

    tr.add_row({std::string(mname) + "/K" + std::to_string(kRoof),
                Table::num(static_cast<long long>(a.num_rows())),
                Table::num(static_cast<long long>(a.nnz())), Table::num(baseMs, 3),
                Table::num(reordMs, 3), Table::num(mtMs, 3), Table::num(gbpsBase, 2),
                Table::num(gbps, 2), Table::num(speedup, 2),
                Table::num(100.0 * gbps / streamGbps, 1)});
    json.add("roofline")
        .field("matrix", std::string(mname))
        .field("k", kRoof)
        .field("rows", static_cast<long long>(a.num_rows()))
        .field("nnz", static_cast<long long>(a.nnz()))
        .field("noreorder_ms", baseMs)
        .field("compiled_ms", reordMs)
        .field("compiled_mt_ms", mtMs)
        .field("gflops", gflops)
        .field("gbps_noreorder", gbpsBase)
        .field("gbps", gbps)
        .field("gbps_speedup", speedup)
        .field("stream_fraction", gbps / streamGbps)
        .field("reordered_procs", c.reorderedProcs);
    }
    tr.add_separator();
  }
  tr.print();

  int rc = 0;
  if (const auto path = args.flag("json"); path && !json.write(*path)) rc = 1;
  return obs.finish(rc);
}
