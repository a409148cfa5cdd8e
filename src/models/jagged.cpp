#include "models/jagged.hpp"

#include <cmath>

#include "models/hypergraph1d.hpp"
#include "util/assert.hpp"
#include "util/trace.hpp"

namespace fghp::model {

ModelRun run_jagged(const sparse::Csr& a, idx_t pr, idx_t pc,
                    const part::PartitionConfig& cfg) {
  FGHP_REQUIRE(a.is_square(), "the jagged model requires a square matrix");
  FGHP_REQUIRE(pr >= 1 && pc >= 1, "grid dimensions must be positive");
  const idx_t n = a.num_rows();
  trace::TraceScope span("model", "build.jagged", "pr", pr, "pc", pc);

  ModelRun run;
  const FineGrainModel m = build_finegrain(a);
  const std::vector<idx_t> rowOf = vertex_lines(a, m, Line::kRow);
  const std::vector<idx_t> colOf = vertex_lines(a, m, Line::kCol);

  // Phase 1: pr row stripes via the column-net grouping; stripe[v] is the
  // stripe of vertex v's row.
  std::vector<idx_t> stripe(colOf.size(), 0);
  if (pr > 1) stripe = hg::lift(rowOf, partition_grouped(m, rowOf, n, pr, cfg, run).partition);

  // Phase 2: each stripe's columns split pc ways by the row-net grouping of
  // the stripe's vertices alone. The dummy v_ii stays in its row's stripe,
  // so each net keeps its consistency pin. Column splits differ across
  // stripes — that is the "jagged" part.
  std::vector<idx_t> part = stripe;
  if (pc > 1) {
    std::vector<idx_t> stripeCols(colOf.size());
    for (idx_t s = 0; s < pr; ++s) {
      for (std::size_t v = 0; v < colOf.size(); ++v)
        stripeCols[v] = stripe[v] == s ? colOf[v] : kInvalidIdx;
      const std::vector<idx_t> colPart =
          hg::lift(stripeCols, partition_grouped(m, stripeCols, n, pc, cfg, run).partition);
      for (std::size_t v = 0; v < colOf.size(); ++v)
        if (stripe[v] == s) part[v] = s * pc + colPart[v];
    }
  }
  run.decomp = decode_finegrain(a, m, hg::Partition(m.h, pr * pc, std::move(part)));
  return run;
}

ModelRun run_jagged_k(const sparse::Csr& a, idx_t K, const part::PartitionConfig& cfg) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  idx_t pr = 1;
  for (idx_t f = 1; static_cast<double>(f) <= std::sqrt(static_cast<double>(K)); ++f) {
    if (K % f == 0) pr = f;
  }
  return run_jagged(a, pr, K / pr, cfg);
}

}  // namespace fghp::model
