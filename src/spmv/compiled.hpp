// SpMV-typed view of the workload-agnostic compiled execution core
// (exec/compiled.hpp). A CompiledPlan *is* an exec::Image — the lowering of
// the plan (an exec::Schedule with one input space "x", output space "y",
// baked matrix constants) by exec::compile — and ExecSession is
// exec::Session with the single-input calling convention: run(x, y) instead
// of run({x}, y).
//
// Everything documented on the generic core holds here unchanged: zero
// allocation per iteration after the first (serial and threaded),
// bit-identical serial/MT results at any thread count, the second-level
// cache-aware RCM reordering (CompileOptions::cacheReorder), the `exec.*`
// fault/cancel sites and the one-retry-then-serial-fallback ladder. Trace and metric names stay in the
// "spmv" family ("spmv"/"spmv.iteration" spans, "spmv.iterations" etc.),
// carried by the schedule's workload labels. DESIGN.md §12, §14.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "exec/compiled.hpp"
#include "spmv/executor.hpp"
#include "spmv/plan.hpp"
#include "util/cancel.hpp"

namespace fghp::spmv {

/// The execution image of an SpMV plan. In the generic image, x is input
/// space 0 (c.in[0]: slots, owned gather, expand send/recv tables), y is the
/// output space (c.out: partial slots, owner fold, fold send/recv tables),
/// the task CSR is groupPtr/rhsSlot/constVals, and num_tasks() == nnz.
using CompiledPlan = exec::Image;

/// Compile-time choices for the lowering (generic: cacheReorder + a cancel
/// token checked once at the "plan.compile" phase boundary).
using CompileOptions = exec::CompileOptions;

/// Owns a compiled image plus the scratch to execute it repeatedly. The
/// plan constructor lowers it with exec::compile, which throws
/// fghp::InvariantError on a corrupt plan. After the first run() / run_mt()
/// call, both paths perform zero heap allocations per iteration (reuse the
/// same y vector). Not thread-safe: one session per
/// concurrent caller; run_mt parallelizes internally.
class ExecSession {
 public:
  explicit ExecSession(const SpmvPlan& plan, const CompileOptions& opts = {})
      : s_(plan, opts) {}
  explicit ExecSession(CompiledPlan compiled) : s_(std::move(compiled)) {}

  const CompiledPlan& compiled() const { return s_.image(); }

  /// Installs a cancellation token for subsequent iterations. Each run()/
  /// run_mt() call starts with a check-point at the "exec.iter" boundary
  /// (fault site `cancel.exec.iter`, ordinal = 1-based iteration number) and
  /// run_mt additionally checks between BSP supersteps — always on the
  /// calling thread, never inside a worker task, so the retry ladder cannot
  /// misread a cancellation as a task fault. A cancelled or expired token
  /// surfaces as CancelledError / DeadlineExceededError; the session stays
  /// reusable afterwards (every scratch word is re-assigned each run).
  void set_cancel(cancel::CancelToken token) { s_.set_cancel(std::move(token)); }

  /// 1-based count of iterations started (run + run_mt); the check-point
  /// ordinal, exposed for tests.
  long iterations_started() const { return s_.iterations_started(); }

  /// Serial y = A x into `y` (resized to numRows, zero-filled, then
  /// accumulated in the serial executor's exact summation order).
  void run(std::span<const double> x, std::vector<double>& y,
           ExecStats* stats = nullptr) {
    const std::array<std::span<const double>, 1> ins{x};
    s_.run(ins, y, stats);
  }

  /// Threaded BSP y = A x: exec::Session::run_mt's three supersteps (expand
  /// and zero y; owned gather, multiply, fold send and own partials; add the
  /// received partials), each a parallel_for on the shared pool's team.
  /// Threads come from the shared ThreadPool via the standard resolution
  /// (`numThreads` if positive, else FGHP_THREADS / hardware concurrency,
  /// capped at numProcs); when the request resolves to one thread the
  /// supersteps run inline on the caller, but the `exec.expand` /
  /// `exec.fold` / `exec.retry` fault sites and the
  /// one-retry-then-serial-fallback ladder stay armed exactly as in the
  /// threaded case. Output is bit-identical to run() at any thread count.
  void run_mt(std::span<const double> x, std::vector<double>& y,
              idx_t numThreads = 0, ExecStats* stats = nullptr) {
    const std::array<std::span<const double>, 1> ins{x};
    s_.run_mt(ins, y, numThreads, stats);
  }

 private:
  exec::Session s_;
};

}  // namespace fghp::spmv
