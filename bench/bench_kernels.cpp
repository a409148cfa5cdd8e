// Ablation A6 — google-benchmark microbenchmarks of the hot kernels:
// model construction, one coarsening level, one FM refinement, the
// communication analyzer and the local SpMV. These are the building blocks
// whose costs explain the Table 2 'time' column.
//
// Flags: --json <path> (ours, stripped before google-benchmark sees argv)
// writes per-benchmark timings via the shared JsonWriter, same document
// shape as the table benches.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/volume.hpp"
#include "models/finegrain.hpp"
#include "models/hypergraph1d.hpp"
#include "partition/hg/coarsen.hpp"
#include "partition/hg/partitioner.hpp"
#include "partition/hg/refine.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "sparse/testsuite.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace fghp;

const sparse::Csr& matrix() {
  static const sparse::Csr a = sparse::make_matrix("ken-11", 1, 0.5);
  return a;
}

void BM_BuildFineGrain(benchmark::State& state) {
  const sparse::Csr& a = matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::build_finegrain(a));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_BuildFineGrain)->Unit(benchmark::kMillisecond);

void BM_BuildColnet(benchmark::State& state) {
  const sparse::Csr& a = matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::build_colnet_hypergraph(a));
  }
}
BENCHMARK(BM_BuildColnet)->Unit(benchmark::kMillisecond);

void BM_CoarsenOneLevel(benchmark::State& state) {
  const model::FineGrainModel m = model::build_finegrain(matrix());
  part::PartitionConfig cfg;
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(part::hgc::coarsen_one_level(m.h, cfg, rng));
  }
  state.SetItemsProcessed(state.iterations() * m.h.num_pins());
}
BENCHMARK(BM_CoarsenOneLevel)->Unit(benchmark::kMillisecond);

void BM_FmRefineBisection(benchmark::State& state) {
  const model::FineGrainModel m = model::build_finegrain(matrix());
  part::PartitionConfig cfg;
  Rng seedRng(2);
  std::vector<idx_t> assign(static_cast<std::size_t>(m.h.num_vertices()));
  for (auto& p : assign) p = seedRng.uniform(0, 1);
  const weight_t cap = m.h.total_vertex_weight();
  for (auto _ : state) {
    hg::Partition p(m.h, 2, assign);
    part::hgr::BisectionFM fm(cfg);
    Rng rng(3);
    benchmark::DoNotOptimize(fm.refine(m.h, p, {cap, cap}, rng));
  }
}
BENCHMARK(BM_FmRefineBisection)->Unit(benchmark::kMillisecond);

void BM_PartitionFineGrainK16(benchmark::State& state) {
  const model::FineGrainModel m = model::build_finegrain(matrix());
  part::PartitionConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part::partition_hypergraph(m.h, 16, cfg));
  }
}
BENCHMARK(BM_PartitionFineGrainK16)->Unit(benchmark::kMillisecond);

void BM_CommAnalyze(benchmark::State& state) {
  const sparse::Csr& a = matrix();
  part::PartitionConfig cfg;
  const model::ModelRun run = model::run_finegrain(a, 16, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::analyze(a, run.decomp));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_CommAnalyze)->Unit(benchmark::kMillisecond);

void BM_ReferenceSpmv(benchmark::State& state) {
  const sparse::Csr& a = matrix();
  Rng rng(4);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.uniform01();
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  for (auto _ : state) {
    spmv::multiply_into(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_ReferenceSpmv)->Unit(benchmark::kMicrosecond);

const spmv::SpmvPlan& finegrain_plan() {
  static const spmv::SpmvPlan plan = [] {
    part::PartitionConfig cfg;
    const model::ModelRun run = model::run_finegrain(matrix(), 16, cfg);
    return spmv::build_plan(matrix(), run.decomp);
  }();
  return plan;
}

void BM_CompilePlan(benchmark::State& state) {
  const spmv::SpmvPlan& plan = finegrain_plan();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmv::compile_plan(plan));
  }
  state.SetItemsProcessed(state.iterations() * matrix().nnz());
}
BENCHMARK(BM_CompilePlan)->Unit(benchmark::kMillisecond);

void BM_CompiledSpmvSession(benchmark::State& state) {
  const sparse::Csr& a = matrix();
  spmv::ExecSession session(finegrain_plan());
  Rng rng(5);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.uniform01();
  std::vector<double> y;
  for (auto _ : state) {
    session.run(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_CompiledSpmvSession)->Unit(benchmark::kMicrosecond);

// The per-site cost of an instrumentation point while tracing is disabled
// (the default): one relaxed atomic load and a branch. Compare against
// BM_CompiledSpmvSession to see that the budget holds in context, and
// against the enabled variant for the recording cost.
void BM_DisabledTraceScope(benchmark::State& state) {
  trace::disable();
  for (auto _ : state) {
    trace::TraceScope span("bench", "disabled.site", "arg", 1);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DisabledTraceScope);

void BM_EnabledTraceScope(benchmark::State& state) {
  trace::enable();
  for (auto _ : state) {
    trace::TraceScope span("bench", "enabled.site", "arg", 1);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
  trace::disable();
  trace::reset();
}
BENCHMARK(BM_EnabledTraceScope);

// Captures every finished run for the --json flag while still printing the
// normal console table.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<Run> captured;

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report)
      if (!r.error_occurred) captured.push_back(r);
    ConsoleReporter::ReportRuns(report);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off our --json flag; google-benchmark rejects flags it doesn't know.
  std::string jsonPath;
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      jsonPath = argv[i] + 7;
    } else {
      filtered.push_back(argv[i]);
    }
  }
  int filteredArgc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filteredArgc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filteredArgc, filtered.data())) return 1;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!jsonPath.empty()) {
    fghp::bench::JsonWriter json;
    json.scalar("bench", std::string("kernels"));
    for (const auto& r : reporter.captured) {
      const double iters = r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
      auto& rec = json.add("benchmarks");
      rec.field("name", r.benchmark_name())
          .field("iterations", static_cast<long long>(r.iterations))
          .field("real_ns_per_iter", r.real_accumulated_time / iters * 1e9)
          .field("cpu_ns_per_iter", r.cpu_accumulated_time / iters * 1e9);
      const auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) rec.field("items_per_second", double(it->second));
    }
    if (!json.write(jsonPath)) return 1;
  }
  return 0;
}
