// The command-line mains' standard observability flags, parsed and exported
// in one place (fghp_tool, cg_solver and every bench main):
//
//   --trace-out FILE|-     Chrome trace-event JSON of the whole run
//   --metrics-out FILE|-   flat metrics JSON ("-" = stdout)
//   --report-out FILE|-    structured RunReport (implies tracing, so the
//                          report has phases)
//   --perf                 hardware counters where the kernel allows
//
// Construct before the measured work — the RunReport builder baselines the
// metrics registry and the clocks — and end the run with finish() or fail().
// Exports are best-effort and happen on the failure path too: a trace of a
// failing run is exactly what you want to look at. The run's own non-zero
// exit code always wins; only an otherwise successful run turns a failed
// export (reported on stderr) into ErrorCode::kIo.
#pragma once

#include <exception>
#include <memory>
#include <string>

#include "util/options.hpp"
#include "util/report.hpp"

namespace fghp {

class Observability {
 public:
  /// `tool` and `command` label the RunReport (e.g. "fghp_tool", "partition").
  Observability(const ArgParser& args, const std::string& tool, const std::string& command);

  /// The run's RunReport builder, for info() / expect_volume() context.
  report::Builder& report() { return *rep_; }

  /// Writes the requested exports. Returns `rc` when it is non-zero, else 0,
  /// or ErrorCode::kIo if an export failed.
  int finish(int rc) const;

  /// The failure path: prints "error: <what>" to stderr, records the error
  /// in the report, writes the exports and returns exit_code(e).
  int fail(const std::exception& e);

 private:
  std::string traceOut_, metricsOut_, reportOut_;
  std::unique_ptr<report::Builder> rep_;
};

}  // namespace fghp
