#include "util/fault.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/options.hpp"
#include "util/trace.hpp"

namespace fghp::fault {

namespace {

struct SpecEntry {
  std::string site;
  long ordinal = 0;  // 0 = match any occurrence
};

std::mutex g_mu;
std::vector<SpecEntry> g_entries;
std::atomic<bool> g_enabled{false};
std::once_flag g_envOnce;

long parse_ordinal(const std::string& item, std::size_t colon) {
  const std::string num = item.substr(colon + 1);
  std::size_t used = 0;
  long ord = 0;
  try {
    ord = std::stol(num, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != num.size() || ord < 1) {
    throw FormatError("fault spec ordinal must be a positive integer: '" + item + "'");
  }
  return ord;
}

std::vector<SpecEntry> parse_spec(const std::string& spec) {
  std::vector<SpecEntry> entries;
  const auto& sites = known_sites();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (item.empty()) continue;
    SpecEntry e;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      e.site = item;
    } else {
      e.site = item.substr(0, colon);
      e.ordinal = parse_ordinal(item, colon);
    }
    if (std::find(sites.begin(), sites.end(), e.site) == sites.end()) {
      throw FormatError("unknown fault site '" + e.site +
                        "' (run `fghp_tool faults` for the list)");
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

void install_locked(std::vector<SpecEntry> entries) {
  g_entries = std::move(entries);
  g_enabled.store(!g_entries.empty(), std::memory_order_release);
}

void init_from_env() {
  std::call_once(g_envOnce, [] {
    const auto env = env_str("FGHP_FAULT_SPEC");
    if (!env) return;
    auto entries = parse_spec(*env);  // throws on a bad env spec: fail loudly
    std::lock_guard<std::mutex> lk(g_mu);
    install_locked(std::move(entries));
  });
}

}  // namespace

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      "cancel.exec.iter",  // exec-session iteration check-point (ordinal = iteration)
      "cancel.rb.node",    // recursive-bisection node check-point (ordinal = part offset + 1)
      "decomp.open",  // opening a decomposition file for reading
      "decomp.read",  // parsing a decomposition stream
      "decomp.write", // serializing a decomposition
      "exec.expand",  // MT executor expand task   (ordinal = processor + 1)
      "exec.fold",    // MT executor fold task     (ordinal = processor + 1)
      "exec.retry",   // MT executor retry attempt (ordinal = processor + 1)
      "fm.refine",    // FM refinement inside a multilevel hypergraph bisection
      "geo.retry",    // geometric split retry attempt  (ordinal = part offset + 1)
      "geo.split",    // geometric bisection node       (ordinal = part offset + 1)
      "gfm.refine",   // FM refinement inside a multilevel graph bisection
      "grb.bisect",   // graph recursive-bisection node (ordinal = part offset + 1)
      "grb.retry",    // graph bisection retry attempt  (ordinal = part offset + 1)
      "hg.build",     // hypergraph construction from pin lists
      "mmio.open",    // opening a Matrix Market file for reading
      "mmio.read",    // Matrix Market entry parse (ordinal = entry index)
      "rb.bisect",    // hypergraph recursive-bisection node (ordinal = part offset + 1)
      "rb.retry",     // hypergraph bisection retry attempt  (ordinal = part offset + 1)
      "watchdog.stall",  // simulated worker stall seen by the pool watchdog (ordinal = scan)
  };
  return sites;
}

void install_spec(const std::string& spec) {
  init_from_env();  // establish the once-flag so env never overwrites us later
  auto entries = parse_spec(spec);
  std::lock_guard<std::mutex> lk(g_mu);
  install_locked(std::move(entries));
}

std::string current_spec() {
  init_from_env();
  std::lock_guard<std::mutex> lk(g_mu);
  std::ostringstream os;
  for (std::size_t i = 0; i < g_entries.size(); ++i) {
    if (i > 0) os << ',';
    os << g_entries[i].site;
    if (g_entries[i].ordinal > 0) os << ':' << g_entries[i].ordinal;
  }
  return os.str();
}

bool enabled() {
  init_from_env();
  return g_enabled.load(std::memory_order_acquire);
}

bool should_fail(std::string_view site, long ordinal) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  for (const auto& e : g_entries) {
    if (e.site == site && (e.ordinal == 0 || e.ordinal == ordinal)) return true;
  }
  return false;
}

namespace {

/// Records a firing: one instant event in the trace (named by the canonical
/// entry from known_sites(), whose storage is static — trace events never
/// copy strings) and the fired counter.
void record_fired(std::string_view site, long ordinal) {
  const auto& sites = known_sites();
  const auto it = std::find(sites.begin(), sites.end(), site);
  if (it != sites.end()) trace::instant("fault", it->c_str(), "ordinal", ordinal);
  static metrics::Counter& fired = metrics::counter("fault.fired");
  fired.add();
}

}  // namespace

bool fired(std::string_view site, long ordinal) {
  if (!should_fail(site, ordinal)) return false;
  record_fired(site, ordinal);
  return true;
}

void check(std::string_view site, long ordinal) {
  if (!should_fail(site, ordinal)) return;
  // The fault is observable before it propagates.
  record_fired(site, ordinal);
  ErrorContext ctx;
  ctx.phase = std::string(site);
  ctx.part = ordinal;
  throw FaultError("injected fault", std::move(ctx));
}

ScopedSpec::ScopedSpec(const std::string& spec) : saved_(current_spec()) {
  install_spec(spec);
}

ScopedSpec::~ScopedSpec() {
  try {
    install_spec(saved_);
  } catch (...) {
    // saved_ came from current_spec(), so it always re-parses; never throw
    // from a destructor regardless.
  }
}

}  // namespace fghp::fault
