// Workload-agnostic execution schedule: the generalization of the SpMV plan
// to any workload whose iteration is "expand the input spaces, run a list of
// scalar multiply-accumulate tasks per processor, fold the output space".
//
// A Schedule has N *input spaces* (SpMV: one, the x vector; SpGEMM: two, the
// nonzeros of A and of B) and one *output space* (SpMV: the y vector;
// SpGEMM: the nonzeros of C). Each space carries per-processor ownership
// lists and an expand (inputs) or fold (output) message schedule, all built
// by the one message builder below (build_space_comm), whatever the
// workload. Each processor's compute phase is a flat list of
// scalar tasks out[o] += lhs * rhs where rhs is gathered from an input
// space and lhs is either a baked per-task constant (SpMV: the matrix
// value) or gathered from a second input space (SpGEMM: the A value).
//
// One BSP iteration therefore runs the same three supersteps for every
// workload: expand all input spaces -> multiply -> fold the output. SpMV is
// expand->multiply->fold; SpGEMM is expand-A/expand-B->multiply->fold-C —
// the same shape with a different space count, which is why one compiled
// core (exec/compiled.hpp) executes both. DESIGN.md §14.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace fghp::exec {

/// One message of a schedule: the ids (of one space) whose values travel
/// between `peer` and this processor.
struct Msg {
  idx_t peer = kInvalidIdx;
  std::vector<idx_t> ids;
  /// For receives: index of the matching entry in the peer's send list
  /// (lets the threaded executor read the right mailbox without searching).
  idx_t pairIndex = kInvalidIdx;
};

/// One index space (a distributed vector of doubles, addressed by id).
struct Space {
  std::string name;  ///< for diagnostics ("x", "y", "A", "B", "C", ...)
  idx_t size = 0;
};

/// One processor's view of one space: the ids it owns plus its send/recv
/// schedule (expand direction for input spaces, fold for the output space).
struct SpaceComm {
  std::vector<idx_t> owned;
  std::vector<Msg> sends;
  std::vector<Msg> recvs;
};

/// One processor's compute phase: scalar tasks out[outId] += lhs * rhs, in
/// execution (= accumulation) order. rhsId indexes Schedule::rhsSpace;
/// lhsId indexes Schedule::lhsSpace when lhsConst is false (then constVals
/// is empty), otherwise constVals holds the per-task constants (then lhsId
/// is empty).
struct ProcTasks {
  std::vector<idx_t> outId;
  std::vector<idx_t> lhsId;
  std::vector<idx_t> rhsId;
  std::vector<double> constVals;
};

/// The full schedule of one workload over K logical processors.
struct Schedule {
  // Static-lifetime workload labels: the tracer stores these pointers, so
  // they must be string literals (or otherwise outlive the process).
  const char* traceCat = "exec";
  const char* traceIteration = "exec.iteration";
  /// Prefix of the registered metrics this workload reports under
  /// ("<prefix>.iterations", "<prefix>.expand.words", ...).
  std::string metricPrefix = "exec";

  idx_t numProcs = 0;
  std::vector<Space> inputs;
  Space output;

  /// True: lhs of every task is a baked constant (constVals). False: lhs is
  /// gathered from inputs[lhsSpace].
  bool lhsConst = true;
  idx_t lhsSpace = kInvalidIdx;  ///< input index of lhs (when !lhsConst)
  idx_t rhsSpace = 0;            ///< input index of rhs

  std::vector<std::vector<SpaceComm>> inComm;  ///< [input space][processor]
  std::vector<SpaceComm> outComm;              ///< [processor]
  std::vector<ProcTasks> tasks;                ///< [processor]

  weight_t total_words() const;  ///< expand + fold send words, all spaces
  idx_t total_messages() const;  ///< directed messages, all spaces
};

/// Message direction of one space: input spaces expand (owner -> user), the
/// output space folds (user -> owner).
enum class Flow { Expand, Fold };

/// The message builder every schedule builder shares. For one space of
/// owner.size() ids, fills comm (one entry per processor): each processor's
/// `owned` list in ascending id order, and one message per (src, dst)
/// processor pair carrying, in ascending order, the ids that cross it — from
/// owner[id] to every other processor in users[id] (Expand), or the reverse
/// (Fold). Messages are appended in (src, dst) order, so the send and recv
/// lists and every id list are deterministic and strictly increasing.
/// users[id] lists the processors that use id (any order, repeats allowed);
/// it is consumed.
void build_space_comm(std::span<const idx_t> owner,
                      std::vector<std::vector<idx_t>>& users, Flow flow,
                      std::vector<SpaceComm>& comm);

/// Returns a list of human-readable problems with a schedule (empty =
/// valid):
///  * processor count inconsistent between numProcs and the comm/task arrays,
///  * lhs/rhs space indices out of range, ragged task arrays,
///  * task or message ids outside their space,
///  * ids owned by zero or multiple processors,
///  * a recv whose pairIndex does not point back at the matching send
///    (peer or id list disagrees),
///  * a message whose id list is not strictly increasing — the sorted /
///    deduplicated determinism contract every builder guarantees and the
///    compiled mailbox translation relies on.
std::vector<std::string> validate_schedule(const Schedule& s);

/// Throws fghp::InvariantError listing all problems if validate_schedule()
/// is non-empty (ErrorContext phase "schedule-validate").
void validate_schedule_or_throw(const Schedule& s);

}  // namespace fghp::exec
