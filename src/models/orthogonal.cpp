#include "models/orthogonal.hpp"

#include <cmath>

#include "models/hypergraph1d.hpp"
#include "util/assert.hpp"
#include "util/trace.hpp"

namespace fghp::model {

ModelRun run_orthogonal(const sparse::Csr& a, idx_t pr, idx_t pc,
                        const part::PartitionConfig& cfg) {
  FGHP_REQUIRE(a.is_square(), "the orthogonal model requires a square matrix");
  FGHP_REQUIRE(pr >= 1 && pc >= 1, "grid dimensions must be positive");
  const idx_t n = a.num_rows();
  trace::TraceScope span("model", "build.orthogonal", "pr", pr, "pc", pc);

  ModelRun run;
  const FineGrainModel m = build_finegrain(a);
  // Vertex v goes to grid processor (row stripe of its row, column stripe
  // of its column), each stripe set from its own 1D grouping.
  std::vector<idx_t> part(static_cast<std::size_t>(m.h.num_vertices()), 0);
  if (pr > 1) {
    const std::vector<idx_t> rowOf = vertex_lines(a, m, Line::kRow);
    part = hg::lift(rowOf, partition_grouped(m, rowOf, n, pr, cfg, run).partition);
  }
  if (pc > 1) {
    const std::vector<idx_t> colOf = vertex_lines(a, m, Line::kCol);
    const std::vector<idx_t> colPart =
        hg::lift(colOf, partition_grouped(m, colOf, n, pc, cfg, run).partition);
    for (std::size_t v = 0; v < part.size(); ++v) part[v] = part[v] * pc + colPart[v];
  }
  run.decomp = decode_finegrain(a, m, hg::Partition(m.h, pr * pc, std::move(part)));
  return run;
}

ModelRun run_orthogonal_k(const sparse::Csr& a, idx_t K, const part::PartitionConfig& cfg) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  idx_t pr = 1;
  for (idx_t f = 1; static_cast<double>(f) <= std::sqrt(static_cast<double>(K)); ++f) {
    if (K % f == 0) pr = f;
  }
  return run_orthogonal(a, pr, K / pr, cfg);
}

}  // namespace fghp::model
