// One-shot SpMV entry points: serial simulation of the distributed SpMV
// (execute) and the multi-threaded BSP run (execute_mt).
//
// Both are thin wrappers that compile the plan and
// run it once through an ExecSession (spmv/compiled.hpp, itself the
// SpMV-typed view of the workload-agnostic exec::Session). Iterative callers
// should hold the session themselves so the compiled image and scratch are
// reused.
#pragma once

#include <span>
#include <vector>

#include "exec/compiled.hpp"
#include "spmv/plan.hpp"

namespace fghp::spmv {

/// Traffic and recovery counts of one executed iteration (generic across
/// workloads: wordsSent/messagesSent over expand + fold of every space,
/// taskRetries and serialFallback from the MT recovery ladder).
using ExecStats = exec::ExecStats;

/// Runs one distributed y = A x under the plan. The plan must come from the
/// same matrix (same dimensions / nonzero placement). stats, if non-null,
/// receives the exact traffic counts (equal to comm::analyze's totals).
std::vector<double> execute(const SpmvPlan& plan, std::span<const double> x,
                            ExecStats* stats = nullptr);

/// Runs one distributed y = A x with `numThreads` worker threads (0 = one
/// per logical processor, capped at hardware concurrency): every logical
/// processor runs the expand / multiply / fold supersteps separated by
/// barriers, with lock-free mailboxes (flat per-processor send buffers in
/// the compiled image, each word written only by its source and read only by
/// its destination, strictly after the barrier). Produces the same y as
/// execute() (identical per-partial summation order).
std::vector<double> execute_mt(const SpmvPlan& plan, std::span<const double> x,
                               idx_t numThreads = 0, ExecStats* stats = nullptr);

}  // namespace fghp::spmv
