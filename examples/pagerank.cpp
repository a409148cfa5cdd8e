// PageRank via distributed transpose products: the power iteration
// r <- d * A^T r + (1 - d)/n needs z = A^T r each step, where A is the
// row-stochastic link matrix. The fine-grain decomposition is computed once
// for A and reused for every transpose product through
// spmv::build_transpose_plan — the same data placement serves both product
// directions at identical communication volume (see spmv/transpose.hpp).
// Exits 1 unless the ranks sum to 1, the top page is a popular one, and the
// transpose product moves exactly as many words as the forward product.
//
//   ./pagerank [--n 3000] [--k 8] [--damping 0.85] [--tol 1e-10]
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "comm/volume.hpp"
#include "models/finegrain.hpp"
#include "partition/hg/partitioner.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "spmv/transpose.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) try {
  using namespace fghp;
  const ArgParser args(argc, argv);
  const auto n = static_cast<idx_t>(args.flag_long("n", 3000));
  const auto k = static_cast<idx_t>(args.flag_long("k", 8));
  const double damping = std::stod(args.flag("damping").value_or("0.85"));
  const double tol = std::stod(args.flag("tol").value_or("1e-10"));

  // A synthetic web graph: preferential-attachment-ish out-links, row-
  // stochastic (each row sums to 1 over its out-links).
  Rng rng(7);
  sparse::Coo coo(n, n);
  for (idx_t i = 0; i < n; ++i) {
    const idx_t outDeg = 2 + static_cast<idx_t>(rng.uniform(0, 6));
    std::vector<idx_t> targets;
    for (idx_t e = 0; e < outDeg; ++e) {
      // Preferential-ish: half the links go to low ids (the "popular" pages).
      const idx_t t = rng.bernoulli(0.5) ? rng.uniform(0, std::max<idx_t>(1, n / 20) - 1)
                                         : rng.uniform(0, n - 1);
      if (t != i) targets.push_back(t);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    if (targets.empty()) targets.push_back((i + 1) % n);  // no dangling rows
    for (idx_t t : targets)
      coo.add(i, t, 1.0 / static_cast<double>(targets.size()));
  }
  const sparse::Csr a = sparse::to_csr(std::move(coo));
  std::printf("web graph: %d pages, %d links, K = %d\n", a.num_rows(), a.nnz(),
              static_cast<int>(k));

  // Decompose once for A; the transpose plan reuses the same placement.
  const model::FineGrainModel m = model::build_finegrain(a);
  part::PartitionConfig cfg;
  const part::HgResult pr = part::partition_hypergraph(m.h, k, cfg);
  const model::Decomposition d = model::decode_finegrain(a, m, pr.partition);
  // Compile the transpose plan once; every power iteration reuses the
  // session's local-indexed image and scratch.
  spmv::ExecSession sessionT(spmv::build_transpose_plan(a, d));
  const comm::CommStats fwd = comm::analyze(a, d);
  const comm::CommStats bwd =
      comm::analyze(sparse::transpose(a), spmv::transpose_decomposition(a, d));
  const bool equalVolumes = bwd.totalWords == fwd.totalWords;
  std::printf("decomposition: %lld words per A^T r (forward product: %lld — %s)\n",
              static_cast<long long>(bwd.totalWords), static_cast<long long>(fwd.totalWords),
              equalVolumes ? "equal totals" : "TOTALS DIFFER");

  // Power iteration.
  std::vector<double> r(static_cast<std::size_t>(n), 1.0 / static_cast<double>(n));
  const double teleport = (1.0 - damping) / static_cast<double>(n);
  long iters = 0;
  double delta = 1.0;
  std::vector<double> z;
  while (delta > tol && iters < 200) {
    sessionT.run(r, z);  // z = A^T r
    delta = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const double next = damping * z[i] + teleport;
      delta += std::abs(next - r[i]);
      r[i] = next;
    }
    ++iters;
  }

  double sum = 0.0;
  for (double v : r) sum += v;
  idx_t top = 0;
  for (idx_t i = 1; i < n; ++i)
    if (r[static_cast<std::size_t>(i)] > r[static_cast<std::size_t>(top)]) top = i;
  std::printf("converged in %ld iterations; |r|_1 = %.6f (should be ~1)\n", iters, sum);
  std::printf("top page: %d with rank %.3e (popular pages are the low ids by"
              " construction)\n", static_cast<int>(top), r[static_cast<std::size_t>(top)]);
  std::printf("total communication across the run: %lld words\n",
              static_cast<long long>(bwd.totalWords) * iters);
  return std::abs(sum - 1.0) < 1e-6 && top < n / 20 && equalVolumes ? 0 : 1;
} catch (const std::exception& e) {
  for (const auto& w : fghp::drain_warnings())
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  std::fprintf(stderr, "error: %s\n", e.what());
  return fghp::exit_code(e);
}
