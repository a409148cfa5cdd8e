#include "spmv/plan.hpp"

#include "util/trace.hpp"

namespace fghp::spmv {

SpmvPlan build_plan(const sparse::Csr& a, const model::Decomposition& d,
                    const cancel::CancelToken& cancel) {
  trace::TraceScope span("spmv", "plan.build", "procs", d.numProcs, "nnz", a.nnz());
  cancel::check_point(cancel, "plan.build");
  model::validate(a, d);
  const auto K = static_cast<std::size_t>(d.numProcs);
  const idx_t n = a.num_rows();

  exec::Schedule s;
  s.traceCat = "spmv";
  s.traceIteration = "spmv.iteration";
  s.metricPrefix = "spmv";
  s.numProcs = d.numProcs;
  s.inputs = {{"x", a.num_cols()}};
  s.output = {"y", n};
  s.lhsConst = true;
  s.rhsSpace = 0;
  s.inComm.assign(1, std::vector<exec::SpaceComm>(K));
  s.outComm.resize(K);
  s.tasks.resize(K);

  // Local nonzeros in CSR order, plus the processors using each column
  // (expand: x owner -> user) and contributing to each row (fold: partial
  // -> y owner).
  std::vector<std::vector<idx_t>> colUsers(static_cast<std::size_t>(a.num_cols()));
  std::vector<std::vector<idx_t>> rowUsers(static_cast<std::size_t>(n));
  std::size_t e = 0;
  for (idx_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k, ++e) {
      const idx_t p = d.nnzOwner[e];
      exec::ProcTasks& t = s.tasks[static_cast<std::size_t>(p)];
      t.outId.push_back(i);
      t.rhsId.push_back(cols[k]);
      t.constVals.push_back(vals[k]);
      colUsers[static_cast<std::size_t>(cols[k])].push_back(p);
      rowUsers[static_cast<std::size_t>(i)].push_back(p);
    }
  }
  exec::build_space_comm(d.xOwner, colUsers, exec::Flow::Expand, s.inComm[0]);
  exec::build_space_comm(d.yOwner, rowUsers, exec::Flow::Fold, s.outComm);
  return s;
}

}  // namespace fghp::spmv
