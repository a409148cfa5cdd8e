#include "spgemm/plan.hpp"

#include <array>

#include "util/assert.hpp"
#include "util/trace.hpp"

namespace fghp::spgemm {

namespace {

constexpr std::size_t uz(idx_t v) { return static_cast<std::size_t>(v); }

void check_owners(const std::vector<idx_t>& owners, std::size_t want, idx_t K,
                  const char* what) {
  FGHP_REQUIRE(owners.size() == want, "decomposition owner array has the wrong size");
  for (idx_t p : owners)
    FGHP_REQUIRE(p >= 0 && p < K, what);
}

}  // namespace

void validate(const TaskGraph& t, const SpgemmDecomposition& d) {
  FGHP_REQUIRE(d.numProcs > 0, "decomposition needs at least one processor");
  check_owners(d.taskOwner, uz(t.num_tasks()), d.numProcs, "task owner out of range");
  check_owners(d.aOwner, uz(t.numA), d.numProcs, "A entry owner out of range");
  check_owners(d.bOwner, uz(t.numB), d.numProcs, "B entry owner out of range");
  check_owners(d.cOwner, uz(t.num_c()), d.numProcs, "C entry owner out of range");
}

exec::Schedule build_schedule(const TaskGraph& t, const SpgemmDecomposition& d) {
  trace::TraceScope span("spgemm", "plan.build", "procs", d.numProcs, "tasks",
                         t.num_tasks());
  validate(t, d);
  const idx_t K = d.numProcs;

  exec::Schedule s;
  s.traceCat = "spgemm";
  s.traceIteration = "spgemm.iteration";
  s.metricPrefix = "spgemm";
  s.numProcs = K;
  s.inputs = {{"A", t.numA}, {"B", t.numB}};
  s.output = {"C", t.num_c()};
  s.lhsConst = false;
  s.lhsSpace = 0;
  s.rhsSpace = 1;
  s.inComm.assign(2, std::vector<exec::SpaceComm>(uz(K)));
  s.outComm.resize(uz(K));
  s.tasks.resize(uz(K));

  // Per-processor task lists in the canonical task order, plus the
  // processors running a task that reads each entry of A or B (expand: owner
  // -> reader) and computing a partial of each C entry (fold: contributor ->
  // owner).
  std::vector<std::vector<idx_t>> usersA(uz(t.numA)), usersB(uz(t.numB)),
      usersC(uz(t.num_c()));
  for (idx_t w = 0; w < t.num_tasks(); ++w) {
    const idx_t p = d.taskOwner[uz(w)];
    exec::ProcTasks& pt = s.tasks[uz(p)];
    pt.outId.push_back(t.taskC[uz(w)]);
    pt.lhsId.push_back(t.taskA[uz(w)]);
    pt.rhsId.push_back(t.taskB[uz(w)]);
    usersA[uz(t.taskA[uz(w)])].push_back(p);
    usersB[uz(t.taskB[uz(w)])].push_back(p);
    usersC[uz(t.taskC[uz(w)])].push_back(p);
  }
  exec::build_space_comm(d.aOwner, usersA, exec::Flow::Expand, s.inComm[0]);
  exec::build_space_comm(d.bOwner, usersB, exec::Flow::Expand, s.inComm[1]);
  exec::build_space_comm(d.cOwner, usersC, exec::Flow::Fold, s.outComm);

  return s;
}

SpgemmSession::SpgemmSession(const TaskGraph& t, const SpgemmDecomposition& d,
                             const CompileOptions& opts)
    : s_(build_schedule(t, d), opts) {}

void SpgemmSession::run(std::span<const double> aVals, std::span<const double> bVals,
                        std::vector<double>& c, ExecStats* stats) {
  const std::array<std::span<const double>, 2> ins{aVals, bVals};
  s_.run(ins, c, stats);
}

void SpgemmSession::run_mt(std::span<const double> aVals,
                           std::span<const double> bVals, std::vector<double>& c,
                           idx_t numThreads, ExecStats* stats) {
  const std::array<std::span<const double>, 2> ins{aVals, bVals};
  s_.run_mt(ins, c, numThreads, stats);
}

}  // namespace fghp::spgemm
