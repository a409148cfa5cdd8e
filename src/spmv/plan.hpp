// Distributed SpMV plan: the exec::Schedule of y = A x under a
// decomposition — one input space "x" (expanded from the column owners),
// output space "y" (partials folded to the row owners), and one
// baked-constant task per nonzero. Its word/message totals are, by
// construction, the quantities comm::analyze reports; the executors assert
// that equivalence at runtime. See exec/schedule.hpp and DESIGN.md §14.
#pragma once

#include "exec/schedule.hpp"
#include "models/decomposition.hpp"
#include "sparse/csr.hpp"
#include "util/cancel.hpp"

namespace fghp::spmv {

/// The SpMV plan is the generic schedule: inputs = {"x" (numCols ids)},
/// output = "y" (numRows ids), tasks[p] = processor p's local nonzeros in
/// CSR order (outId = row, rhsId = col, constVals = value), inComm[0] /
/// outComm = the expand / fold messages. Trace and metric labels are the
/// "spmv" family.
using SpmvPlan = exec::Schedule;

/// Builds the plan. Deterministic: ids inside every message and the
/// messages themselves are sorted (exec::build_space_comm). The optional
/// token is checked once at the phase boundary before any work (an inactive
/// default token is free). A plan built from an untrusted (file-loaded)
/// decomposition should pass exec::validate_schedule_or_throw before it runs.
SpmvPlan build_plan(const sparse::Csr& a, const model::Decomposition& d,
                    const cancel::CancelToken& cancel = {});

}  // namespace fghp::spmv
