// Schedule compilation: lowers an exec::Schedule into a local-indexed,
// zero-allocation execution image (Image) and runs it through a reusable
// Session. This is the workload-agnostic core behind spmv::ExecSession and
// spgemm::SpgemmSession — one lowering and one BSP engine execute every
// schedule, whatever its space count.
//
// A plan-walking executor pays a hash lookup per task plus fresh
// mailbox/cache/partial allocations on every call. Iterative callers run
// the same schedule hundreds of times, so we lower once instead:
//
//  * every processor's tasks become a grouped CSR whose slot indices point
//    into dense per-processor scratch (local numbering, no hashes) — one
//    gather scratch per input space, one partial scratch for the output,
//  * every expand/fold message id is pre-translated to a scratch slot, and
//    all message payloads pack into one flat buffer per space addressed by
//    prefix offsets (the *Off arrays below),
//  * Session owns the image plus the scratch vectors, so iterations after
//    the first perform no heap allocation at all on the serial path (the
//    threaded path still spawns its worker threads per call).
//
// Both execution paths are bit-identical to each other and across thread
// counts: each task group accumulates in the schedule's task order and the
// fold accumulates own-partial first, then remote partials in schedule
// (sender-major) order.
//
// When every task's lhs is a baked constant (SpMV), compilation applies the
// second-level *cache-aware reordering* inside every processor's block
// (CompileOptions::cacheReorder, on by default): local output and rhs slots
// are renumbered by a reverse Cuthill-McKee sweep of the block's bipartite
// group/slot graph (sparse::bipartite_rcm), adopted per block only on a
// decisive locality-score win, and folded into every pre-translated slot
// table at compile time — results stay bit-identical either way. Gathered-
// lhs schedules (SpGEMM) skip the pass: their blocks stream three spaces at
// once and the bipartite proxy does not model that. The hot loops run
// through the kernels in exec/kernels.hpp. DESIGN.md §12, §14.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exec/schedule.hpp"
#include "util/cancel.hpp"
#include "util/metrics.hpp"

namespace fghp::exec {

struct ExecStats {
  weight_t wordsSent = 0;     ///< total words moved (expand + fold, all spaces)
  idx_t messagesSent = 0;     ///< directed messages (all spaces)
  idx_t taskRetries = 0;      ///< MT executor tasks that failed once and were
                              ///< retried (0 for the serial executor)
  bool serialFallback = false;  ///< MT executor degraded to the serial path
                                ///< after a task failed its retry
};

/// One input space's share of the image. All arrays are flat and
/// concatenated processor-major; a `*Off` array of size numProcs+1 gives
/// processor p the half-open range [off[p], off[p+1]). "Slot" indexes the
/// session's flat gather scratch of this space.
struct InSpaceImage {
  idx_t size = 0;                 ///< global ids are in [0, size)
  std::vector<idx_t> off;         ///< local slots (gather scratch)
  std::vector<idx_t> slotGlobal;  ///< slot -> global id (serial gather)
  std::vector<idx_t> ownOff;      ///< owned-and-locally-used pairs
  std::vector<idx_t> ownId;       ///< owned gather: global id ...
  std::vector<idx_t> ownSlot;     ///< ... into this slot (MT superstep 1)
  std::vector<idx_t> sendOff;     ///< expand send-buffer words
  std::vector<idx_t> sendMsgOff;  ///< expand messages
  std::vector<idx_t> sendId;      ///< send word -> global id to copy out
  std::vector<idx_t> recvOff;     ///< expand recv words
  std::vector<idx_t> recvSlot;    ///< recv word -> destination slot
  std::vector<idx_t> recvSrc;     ///< recv word -> source word in send space
};

/// The output space's share of the image: slots index the partial scratch;
/// fold sends read partials, fold recvs accumulate into the global output.
struct OutSpaceImage {
  idx_t size = 0;
  std::vector<idx_t> off;         ///< local group slots (partial scratch)
  std::vector<idx_t> ownOff;      ///< owned-and-locally-computed pairs
  std::vector<idx_t> ownId;       ///< owner fold: global id ...
  std::vector<idx_t> ownSlot;     ///< ... accumulated from this slot
  std::vector<idx_t> sendOff;     ///< fold send-buffer words
  std::vector<idx_t> sendMsgOff;  ///< fold messages
  std::vector<idx_t> sendSlot;    ///< send word -> source partial slot
  std::vector<idx_t> sendId;      ///< send word -> global id (serial fold)
  std::vector<idx_t> recvOff;     ///< fold recv words
  std::vector<idx_t> recvId;      ///< recv word -> global id accumulated into
  std::vector<idx_t> recvSrc;     ///< recv word -> source word in send space
};

/// The compiled execution image of one schedule.
struct Image {
  // Static-lifetime workload labels, copied from the schedule.
  const char* traceCat = "exec";
  const char* traceIteration = "exec.iteration";
  std::string metricPrefix = "exec";

  idx_t numProcs = 0;
  bool lhsConst = true;
  idx_t lhsSpace = kInvalidIdx;
  idx_t rhsSpace = 0;

  std::vector<InSpaceImage> in;
  OutSpaceImage out;

  // --- task CSR, grouped by output slot (concatenated; groups of proc p
  // are [out.off[p], out.off[p+1]), entries of group g start at groupPtr[g])
  std::vector<idx_t> groupPtr;    ///< size out.off.back() + 1
  std::vector<idx_t> rhsSlot;     ///< rhs slot per task (local numbering)
  std::vector<idx_t> lhsSlot;     ///< lhs slot per task (when !lhsConst)
  std::vector<double> constVals;  ///< lhs constant per task (when lhsConst)

  /// Whether the second-level cache reordering pass ran (execution is
  /// identical either way; recorded for observability and tests).
  bool cacheReordered = false;
  /// Blocks where the RCM candidate actually beat the first-use numbering's
  /// locality score and was adopted.
  idx_t reorderedProcs = 0;

  idx_t num_tasks() const { return groupPtr.empty() ? 0 : groupPtr.back(); }
  weight_t total_words() const;  ///< expand + fold send-buffer words
  idx_t total_messages() const;  ///< directed messages, all spaces
};

/// Compile-time choices for the lowering. The defaults are what every
/// production path uses; tests and the roofline bench disable the reorder to
/// pin bit-identity against the plain first-use-order image.
struct CompileOptions {
  /// Renumber each processor's local group/rhs slots with a bandwidth-
  /// reducing bipartite RCM sweep for cache locality (results are
  /// bit-identical with or without; only applies to baked-constant
  /// schedules).
  bool cacheReorder = true;
  /// Checked once at the "plan.compile" phase boundary before any lowering
  /// work (an inactive default token is free).
  cancel::CancelToken cancel;
};

/// Lowers a schedule. Throws fghp::InvariantError if the fold schedule
/// references an output id its processor never computes, or if the compiled
/// send-buffer offsets fail to cover exactly the schedule's total_words() /
/// total_messages() (both indicate a corrupt schedule).
Image compile(const Schedule& s, const CompileOptions& opts = {});

/// Owns a compiled image plus the scratch to execute it repeatedly.
/// After the first run() the serial path performs zero heap allocations per
/// iteration (reuse the same output vector). Not thread-safe: one session
/// per concurrent caller; run_mt parallelizes internally.
class Session {
 public:
  explicit Session(const Schedule& s, const CompileOptions& opts = {});
  explicit Session(Image compiled);

  const Image& image() const { return c_; }

  /// Installs a cancellation token for subsequent iterations. Each run()/
  /// run_mt() call starts with a check-point at the "exec.iter" boundary
  /// (fault site `cancel.exec.iter`, ordinal = 1-based iteration number) and
  /// run_mt additionally checks between BSP supersteps — always on the
  /// calling thread, never inside a worker task, so the retry ladder cannot
  /// misread a cancellation as a task fault. A cancelled or expired token
  /// surfaces as CancelledError / DeadlineExceededError; the session stays
  /// reusable afterwards (every scratch word is re-assigned each run).
  void set_cancel(cancel::CancelToken token) { cancel_ = std::move(token); }

  /// 1-based count of iterations started (run + run_mt); the check-point
  /// ordinal, exposed for tests.
  long iterations_started() const { return iter_; }

  /// Serial iteration: one global value vector per input space (sizes must
  /// match the schedule's spaces), output resized to the output space and
  /// zero-filled, then accumulated in the canonical summation order.
  void run(std::span<const std::span<const double>> ins,
           std::vector<double>& out, ExecStats* stats = nullptr);

  /// Threaded BSP iteration (expand / multiply / fold supersteps with a
  /// full join between them). Workers come from the shared ThreadPool via
  /// the standard resolution (`numThreads` if positive, else FGHP_THREADS /
  /// hardware concurrency, capped at numProcs); when the request resolves
  /// to one thread the supersteps run inline on the caller — no threads are
  /// spawned, but the `exec.expand` / `exec.fold` / `exec.retry` fault
  /// sites and the one-retry-then-serial-fallback ladder stay armed exactly
  /// as in the threaded case. Output is bit-identical to run() at any
  /// thread count.
  void run_mt(std::span<const std::span<const double>> ins,
              std::vector<double>& out, idx_t numThreads = 0,
              ExecStats* stats = nullptr);

 private:
  /// The serial path without the per-iteration check-point: run() wraps it,
  /// and the run_mt serial fallback calls it directly so one logical
  /// iteration never consumes two check-point ordinals.
  void run_serial_impl(std::span<const std::span<const double>> ins,
                       std::vector<double>& out, ExecStats* stats);

  /// Resolves the registered per-workload metrics once at construction (the
  /// references are process-lifetime), so iterations stay allocation-free.
  void resolve_metrics();

  /// Folds one iteration's duration into the `<prefix>.iteration.us`
  /// histogram.
  void note_iteration(std::uint64_t startNs);

  Image c_;
  cancel::CancelToken cancel_;
  long iter_ = 0;
  // Scratch, sized and explicitly zero-filled once at construction
  // (assign, not resize: a moved-from or reused vector never carries stale
  // tail data into a differently-sized image). Every run_mt superstep
  // assigns each word it later reads, so no per-iteration re-zero is
  // needed; inSendBuf_/outSendBuf_ are the flat mailbox spaces of the MT
  // path, the serial path gathers/scatters directly and never touches them.
  std::vector<std::vector<double>> inLoc_, inSendBuf_;
  std::vector<double> partial_, outSendBuf_;
  // Registered metrics of this workload (resolved from metricPrefix).
  metrics::Counter* mIterations_ = nullptr;
  metrics::Counter* mExpandWords_ = nullptr;
  metrics::Counter* mFoldWords_ = nullptr;
  metrics::Counter* mMessages_ = nullptr;
  metrics::Counter* mTaskRetries_ = nullptr;
  metrics::Counter* mSerialFallbacks_ = nullptr;
  metrics::Histogram* mIterationUs_ = nullptr;
};

}  // namespace fghp::exec
