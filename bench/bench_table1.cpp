// Regenerates the paper's Table 1: properties of the test matrices
// (number of rows/cols; total, min, max and average nonzeros per row/col),
// printing the synthetic analog's statistics next to the paper's reported
// values so the substitution fidelity is visible at a glance.
//
// Knobs: FGHP_SCALE, FGHP_MATRICES (see bench_common.hpp).
// Flags: --json <path> writes the per-matrix statistics as JSON.
#include <cstdio>

#include "bench_common.hpp"
#include "sparse/stats.hpp"

int main(int argc, char** argv) {
  using namespace fghp;
  const bench::BenchEnv env = bench::load_env();
  const ArgParser args(argc, argv);
  Observability obs(args, "bench_table1", "bench");
  bench::JsonWriter json;
  json.scalar("table", std::string("table1"));
  json.scalar("scale", env.scale);

  std::printf("Table 1 — properties of the test matrices (synthetic analogs vs paper)\n");
  std::printf("scale = %.2f\n\n", env.scale);

  Table t({"name", "rows/cols", "paper", "nnz total", "paper", "min", "paper", "max",
           "paper", "avg", "paper"});
  for (const auto& name : env.matrices) {
    const auto& entry = sparse::suite_entry(name);
    const sparse::Csr a = sparse::make_matrix(name, 1, env.scale);
    const sparse::MatrixStats s = sparse::compute_stats(a);
    t.add_row({name, Table::num(static_cast<long long>(s.numRows)),
               Table::num(static_cast<long long>(entry.paper.rows)),
               Table::num(static_cast<long long>(s.nnz)),
               Table::num(static_cast<long long>(entry.paper.nnz)),
               Table::num(static_cast<long long>(s.minPerRowCol)),
               Table::num(static_cast<long long>(entry.paper.minPerRowCol)),
               Table::num(static_cast<long long>(s.maxPerRowCol)),
               Table::num(static_cast<long long>(entry.paper.maxPerRowCol)),
               Table::num(s.avgPerRowCol), Table::num(entry.paper.avgPerRowCol)});
    json.add("matrices")
        .field("name", name)
        .field("rows", static_cast<long long>(s.numRows))
        .field("nnz", static_cast<long long>(s.nnz))
        .field("min_per_rowcol", static_cast<long long>(s.minPerRowCol))
        .field("max_per_rowcol", static_cast<long long>(s.maxPerRowCol))
        .field("avg_per_rowcol", s.avgPerRowCol)
        .field("paper_rows", static_cast<long long>(entry.paper.rows))
        .field("paper_nnz", static_cast<long long>(entry.paper.nnz));
  }
  t.print();
  if (const auto path = args.flag("json"); path && !json.write(*path)) return 1;
  std::printf(
      "\nNotes: analogs are generated (see sparse/testsuite.cpp); 'paper' columns are\n"
      "Table 1 of Catalyurek & Aykanat, IPPS 2001. Row counts match exactly at scale 1;\n"
      "nonzero totals within a few percent; min/max/avg match the generator targets.\n");
  return obs.finish(0);
}
