// Conjugate-gradient solver on a 2D Poisson problem whose SpMV runs through
// the fine-grain decomposition and the distributed executor — the iterative-
// solver setting the paper's introduction motivates. The symmetric
// (conformal) x/y partition is what lets every vector operation of CG stay
// local: only the SpMV communicates.
//
//   ./cg_solver [--n 64] [--k 8] [--tol 1e-8] [--max-iters 500]
//               [--timeout-ms MS]
//               [--trace-out trace.json] [--metrics-out metrics.json|-]
//               [--report-out report.json|-] [--perf]
//
// --timeout-ms (or FGHP_TIMEOUT_MS; the flag wins) covers the whole solve:
// the partitioner degrades gracefully if the budget runs short during setup,
// and a CG iteration that starts past the deadline exits 9 — with the trace
// and metrics still written, so an expired run can be diagnosed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "comm/volume.hpp"
#include "models/finegrain.hpp"
#include "partition/hg/partitioner.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "sparse/generators.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/observability.hpp"
#include "util/options.hpp"
#include "util/perf_counters.hpp"
#include "util/report.hpp"

namespace {

using namespace fghp;

long resolve_timeout_ms(const ArgParser& args) {
  if (const auto flag = args.flag("timeout-ms")) return std::stol(*flag);
  if (const char* env = std::getenv("FGHP_TIMEOUT_MS")) return std::stol(env);
  return -1;
}

int run(const ArgParser& args, report::Builder& rep) {
  const auto n = static_cast<idx_t>(args.flag_long("n", 64));
  const auto k = static_cast<idx_t>(args.flag_long("k", 8));
  const double tol = std::stod(args.flag("tol").value_or("1e-8"));
  const long maxIters = args.flag_long("max-iters", 500);
  const cancel::CancelToken token =
      cancel::CancelToken::with_deadline_ms(resolve_timeout_ms(args));

  // SPD system: 5-point Laplacian on an n x n grid.
  const sparse::Csr a = sparse::stencil2d(n, n);
  const auto dim = static_cast<std::size_t>(a.num_rows());
  std::printf("CG on %dx%d Poisson grid (%zu unknowns, %d nonzeros), K = %d\n",
              static_cast<int>(n), static_cast<int>(n), dim, static_cast<int>(a.nnz()),
              static_cast<int>(k));

  // Decompose once; every CG iteration reuses the plan. The partitioner
  // shares the solver's deadline and degrades rather than fails when it
  // expires during setup.
  const model::FineGrainModel m = model::build_finegrain(a);
  part::PartitionConfig cfg;
  cfg.cancel = token;
  const part::HgResult r = part::partition_hypergraph(m.h, k, cfg);
  const model::Decomposition d = model::decode_finegrain(a, m, r.partition);
  const comm::CommStats cs = comm::analyze(a, d);
  rep.info("n", static_cast<long long>(n));
  rep.info("k", static_cast<long long>(k));
  rep.set_proc_comm({cs.sendWords.begin(), cs.sendWords.end()},
                    {cs.recvWords.begin(), cs.recvWords.end()});
  rep.expect_volume("spmv", cs.expandWords, cs.foldWords,
                    static_cast<long long>(cs.expandMessages) + cs.foldMessages);
  std::printf("decomposition: %lld words per SpMV (%.2f scaled), imbalance %.2f%%\n",
              static_cast<long long>(cs.totalWords), cs.scaledTotal(a.num_rows()),
              100.0 * r.imbalance);
  if (r.numDegraded > 0)
    std::printf("  (deadline pressure: %d subproblem(s) demoted during setup)\n",
                static_cast<int>(r.numDegraded));
  // Compile the plan once into a reusable session: every CG iteration's
  // SpMV then runs local-indexed and allocation-free.
  spmv::CompileOptions copts;
  copts.cancel = token;
  spmv::ExecSession spmvSession(spmv::build_plan(a, d, token), copts);
  spmvSession.set_cancel(token);

  // b = A * ones, so the exact solution is ones.
  std::vector<double> ones(dim, 1.0);
  std::vector<double> b;
  spmvSession.run(ones, b);

  // Conjugate gradients. The dot products and axpys operate on conformal
  // vectors: with owner(x_j) == owner(y_j) they would be communication-free
  // on a real machine (each processor reduces its own slice).
  std::vector<double> x(dim, 0.0), rres(b), p(b), ap(dim);
  auto dot = [](const std::vector<double>& u, const std::vector<double>& v) {
    double s = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
    return s;
  };
  perf::CounterScope perfScope("cg.iterations");
  double rr = dot(rres, rres);
  const double bnorm = std::sqrt(dot(b, b));
  long iters = 0;
  while (iters < maxIters && std::sqrt(rr) > tol * bnorm) {
    spmvSession.run(p, ap);  // the only communicating step; reuses scratch
    const double alpha = rr / dot(p, ap);
    for (std::size_t i = 0; i < dim; ++i) {
      x[i] += alpha * p[i];
      rres[i] -= alpha * ap[i];
    }
    const double rrNew = dot(rres, rres);
    const double beta = rrNew / rr;
    rr = rrNew;
    for (std::size_t i = 0; i < dim; ++i) p[i] = rres[i] + beta * p[i];
    ++iters;
    if (iters % 50 == 0)
      std::printf("  iter %4ld  relative residual %.3e\n", iters, std::sqrt(rr) / bnorm);
  }

  double maxErr = 0.0;
  for (double xi : x) maxErr = std::max(maxErr, std::abs(xi - 1.0));
  std::printf("converged in %ld iterations; relative residual %.3e; max |x - 1| = %.3e\n",
              iters, std::sqrt(rr) / bnorm, maxErr);
  std::printf("total SpMV communication: %lld words over %ld iterations\n",
              static_cast<long long>(cs.totalWords) * (iters + 1), iters + 1);
  rep.info("cg_iterations", iters);
  return maxErr < 1e-6 ? 0 : 1;
}

void print_warnings() {
  for (const auto& w : fghp::drain_warnings())
    std::fprintf(stderr, "warning: %s\n", w.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  Observability obs(args, "cg_solver", "solve");
  int rc;
  try {
    rc = run(args, obs.report());
  } catch (const std::exception& e) {
    print_warnings();
    return obs.fail(e);  // typed error wins
  }
  print_warnings();
  return obs.finish(rc);
}
