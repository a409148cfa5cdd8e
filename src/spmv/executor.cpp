#include "spmv/executor.hpp"

#include "spmv/compiled.hpp"

namespace fghp::spmv {

std::vector<double> execute(const SpmvPlan& plan, std::span<const double> x,
                            ExecStats* stats) {
  ExecSession session(plan);
  std::vector<double> y;
  session.run(x, y, stats);
  return y;
}

std::vector<double> execute_mt(const SpmvPlan& plan, std::span<const double> x,
                               idx_t numThreads, ExecStats* stats) {
  ExecSession session(plan);
  std::vector<double> y;
  session.run_mt(x, y, numThreads, stats);
  return y;
}

}  // namespace fghp::spmv
