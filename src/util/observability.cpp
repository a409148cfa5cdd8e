#include "util/observability.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/perf_counters.hpp"
#include "util/trace.hpp"

namespace fghp {

Observability::Observability(const ArgParser& args, const std::string& tool,
                             const std::string& command)
    : traceOut_(args.flag("trace-out").value_or("")),
      metricsOut_(args.flag("metrics-out").value_or("")),
      reportOut_(args.flag("report-out").value_or("")) {
  if (!traceOut_.empty() || !reportOut_.empty()) trace::enable();
  if (args.has_switch("perf")) perf::set_enabled(true);
  rep_ = std::make_unique<report::Builder>(tool, command);
}

int Observability::finish(int rc) const {
  int exportRc = 0;
  const auto attempt = [&exportRc](const auto& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      exportRc = static_cast<int>(ErrorCode::kIo);
    }
  };
  if (!traceOut_.empty())
    attempt([&] { json::write_file(traceOut_, trace::write_chrome_trace); });
  if (!metricsOut_.empty()) {
    attempt([&] {
      json::write_file(metricsOut_,
                       [](std::ostream& o) { metrics::Registry::global().write_json(o); });
    });
  }
  if (!reportOut_.empty()) {
    attempt([&] {
      json::write_file(reportOut_,
                       [&](std::ostream& o) { report::write_json(rep_->build(), o); });
    });
  }
  return rc != 0 ? rc : exportRc;
}

int Observability::fail(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  rep_->set_error(e.what());
  return finish(exit_code(e));
}

}  // namespace fghp
