// Fault-injection registry semantics plus the recovery paths it exists to
// exercise: bisection retry / greedy fallback (deterministic at any thread
// count) and the MT executor's task retry / serial fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "graph/gmetrics.hpp"
#include "graph/gvalidate.hpp"
#include "hypergraph/builder.hpp"
#include "hypergraph/metrics.hpp"
#include "hypergraph/validate.hpp"
#include "models/decomp_io.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "partition/geo/geometric.hpp"
#include "partition/gp/gpartitioner.hpp"
#include "partition/hg/partitioner.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "spmv/compiled.hpp"
#include "spmv/executor.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fghp {
namespace {

// ----------------------------------------------------------- registry ----

TEST(FaultSpec, DisarmedByDefault) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_fail("rb.bisect", 1));
  EXPECT_NO_THROW(fault::check("rb.bisect", 1));
}

TEST(FaultSpec, KnownSitesSortedAndNonEmpty) {
  const auto& sites = fault::known_sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  EXPECT_NE(std::find(sites.begin(), sites.end(), "rb.bisect"), sites.end());
  EXPECT_NE(std::find(sites.begin(), sites.end(), "mmio.read"), sites.end());
}

TEST(FaultSpec, OrdinalMatchingIsExact) {
  fault::ScopedSpec spec("mmio.read:3");
  EXPECT_TRUE(fault::enabled());
  EXPECT_FALSE(fault::should_fail("mmio.read", 2));
  EXPECT_TRUE(fault::should_fail("mmio.read", 3));
  EXPECT_FALSE(fault::should_fail("mmio.read", 4));
  EXPECT_FALSE(fault::should_fail("mmio.open", 3));
}

TEST(FaultSpec, OmittedOrdinalMatchesEveryOccurrence) {
  fault::ScopedSpec spec("rb.bisect");
  EXPECT_TRUE(fault::should_fail("rb.bisect", 1));
  EXPECT_TRUE(fault::should_fail("rb.bisect", 999));
}

TEST(FaultSpec, MultipleEntriesAndSpaces) {
  fault::ScopedSpec spec(" mmio.read:2 , rb.bisect ");
  EXPECT_TRUE(fault::should_fail("mmio.read", 2));
  EXPECT_TRUE(fault::should_fail("rb.bisect", 7));
  EXPECT_EQ(fault::current_spec(), "mmio.read:2,rb.bisect");
}

TEST(FaultSpec, RejectsUnknownSite) {
  EXPECT_THROW(fault::install_spec("no.such.site"), FormatError);
}

TEST(FaultSpec, RejectsBadOrdinal) {
  EXPECT_THROW(fault::install_spec("mmio.read:0"), FormatError);
  EXPECT_THROW(fault::install_spec("mmio.read:-1"), FormatError);
  EXPECT_THROW(fault::install_spec("mmio.read:x"), FormatError);
}

TEST(FaultSpec, CheckThrowsTypedErrorWithContext) {
  fault::ScopedSpec spec("hg.build");
  try {
    fault::check("hg.build", 5);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kFault);
    EXPECT_EQ(e.context().phase, "hg.build");
    EXPECT_EQ(e.context().part, 5);
  }
}

TEST(FaultSpec, ScopedSpecRestores) {
  fault::install_spec("");
  {
    fault::ScopedSpec outer("rb.bisect:1");
    {
      fault::ScopedSpec inner("mmio.read");
      EXPECT_FALSE(fault::should_fail("rb.bisect", 1));
      EXPECT_TRUE(fault::should_fail("mmio.read", 9));
    }
    EXPECT_TRUE(fault::should_fail("rb.bisect", 1));
  }
  EXPECT_FALSE(fault::enabled());
}

// ------------------------------------------------- bisection recovery ----

part::HgResult partitionWith(const hg::Hypergraph& h, idx_t K, const std::string& spec,
                             idx_t threads,
                             part::ValidateLevel level = part::ValidateLevel::kBasic) {
  part::PartitionConfig cfg;
  cfg.seed = 42;
  cfg.numThreads = threads;
  cfg.faultSpec = spec;
  cfg.validateLevel = level;
  return part::partition_hypergraph(h, K, cfg);
}

TEST(Recovery, RetriedBisectionStillBalancedAndCounted) {
  const sparse::Csr a = sparse::random_square(120, 5, 11);
  const model::FineGrainModel m = model::build_finegrain(a);
  drain_warnings();
  const part::HgResult r = partitionWith(m.h, 8, "rb.bisect:1", 1);
  EXPECT_GT(r.numRecoveries, 0);
  EXPECT_GT(warning_count(), 0u);
  drain_warnings();
  EXPECT_TRUE(hg::is_balanced(m.h, r.partition, 0.1));
  for (idx_t v = 0; v < m.h.num_vertices(); ++v) {
    EXPECT_GE(r.partition.part_of(v), 0);
    EXPECT_LT(r.partition.part_of(v), 8);
  }
}

TEST(Recovery, RecoveredPartitionIdenticalAcrossThreadCounts) {
  const sparse::Csr a = sparse::random_square(150, 4, 17);
  const model::FineGrainModel m = model::build_finegrain(a);
  const part::HgResult r1 = partitionWith(m.h, 8, "rb.bisect", 1);
  const part::HgResult r2 = partitionWith(m.h, 8, "rb.bisect", 2);
  const part::HgResult r8 = partitionWith(m.h, 8, "rb.bisect", 8);
  drain_warnings();
  EXPECT_GT(r1.numRecoveries, 0);
  EXPECT_EQ(r1.partition.assignment(), r2.partition.assignment());
  EXPECT_EQ(r1.partition.assignment(), r8.partition.assignment());
}

TEST(Recovery, GreedyFallbackIsCompleteAndDeterministic) {
  const sparse::Csr a = sparse::random_square(100, 4, 23);
  const model::FineGrainModel m = model::build_finegrain(a);
  // Both the primary site and the retry site fire: every bisection node
  // degrades to the greedy split.
  const part::HgResult r1 = partitionWith(m.h, 4, "rb.bisect,rb.retry", 1);
  const part::HgResult r8 = partitionWith(m.h, 4, "rb.bisect,rb.retry", 8);
  drain_warnings();
  EXPECT_GT(r1.numRecoveries, 0);
  EXPECT_EQ(r1.partition.assignment(), r8.partition.assignment());
  EXPECT_TRUE(hg::validate_partition(m.h, r1.partition).empty());
  // The greedy split plus the K-way rebalance must still deliver balance.
  EXPECT_TRUE(hg::is_balanced(m.h, r1.partition, 0.1));
}

TEST(Recovery, CleanRunHasNoRecoveries) {
  const sparse::Csr a = sparse::random_square(80, 4, 31);
  const model::FineGrainModel m = model::build_finegrain(a);
  drain_warnings();
  const part::HgResult r = partitionWith(m.h, 4, "", 1);
  EXPECT_EQ(r.numRecoveries, 0);
  EXPECT_EQ(warning_count(), 0u);
}

TEST(Recovery, StrictValidationPassesAndMatchesBasic) {
  const sparse::Csr a = sparse::random_square(90, 4, 37);
  const model::FineGrainModel m = model::build_finegrain(a);
  const part::HgResult basic = partitionWith(m.h, 4, "", 1);
  const part::HgResult strict =
      partitionWith(m.h, 4, "", 1, part::ValidateLevel::kStrict);
  EXPECT_EQ(basic.partition.assignment(), strict.partition.assignment());
}

TEST(Recovery, FmFaultAlsoRecovered) {
  // fm.refine faults abort the whole multilevel bisect; the retry path must
  // still deliver a complete partition.
  const sparse::Csr a = sparse::random_square(70, 4, 41);
  const model::FineGrainModel m = model::build_finegrain(a);
  const part::HgResult r = partitionWith(m.h, 4, "fm.refine", 1);
  drain_warnings();
  EXPECT_TRUE(hg::validate_partition(m.h, r.partition).empty());
  EXPECT_TRUE(hg::is_balanced(m.h, r.partition, 0.1));
}

// ------------------------------------------ graph bisection recovery ----
// The graph baseline shares the recursive-bisection engine with the
// hypergraph partitioner (partition/rb_driver.cpp), so its recovery ladder
// must behave identically: retry with a fresh stream, degrade to the greedy
// split, stay deterministic at any thread count.

part::GpResult gpartitionWith(const gp::Graph& g, idx_t K, const std::string& spec,
                              idx_t threads,
                              part::ValidateLevel level = part::ValidateLevel::kBasic) {
  part::PartitionConfig cfg;
  cfg.seed = 42;
  cfg.numThreads = threads;
  cfg.faultSpec = spec;
  cfg.validateLevel = level;
  return part::partition_graph(g, K, cfg);
}

TEST(GRecovery, RetriedBisectionStillBalancedAndCounted) {
  const sparse::Csr a = sparse::random_square(120, 5, 11);
  const gp::Graph g = model::build_standard_graph(a);
  drain_warnings();
  const part::GpResult r = gpartitionWith(g, 8, "grb.bisect:1", 1);
  EXPECT_GT(r.numRecoveries, 0);
  EXPECT_GT(warning_count(), 0u);
  drain_warnings();
  EXPECT_TRUE(gp::is_balanced(g, r.partition, 0.1));
  for (idx_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(r.partition.part_of(v), 0);
    EXPECT_LT(r.partition.part_of(v), 8);
  }
}

TEST(GRecovery, RecoveredPartitionIdenticalAcrossThreadCounts) {
  const sparse::Csr a = sparse::random_square(150, 4, 17);
  const gp::Graph g = model::build_standard_graph(a);
  const part::GpResult r1 = gpartitionWith(g, 8, "grb.bisect", 1);
  const part::GpResult r2 = gpartitionWith(g, 8, "grb.bisect", 2);
  const part::GpResult r8 = gpartitionWith(g, 8, "grb.bisect", 8);
  drain_warnings();
  EXPECT_GT(r1.numRecoveries, 0);
  EXPECT_EQ(r1.partition.assignment(), r2.partition.assignment());
  EXPECT_EQ(r1.partition.assignment(), r8.partition.assignment());
}

TEST(GRecovery, GreedyFallbackIsCompleteAndDeterministic) {
  const sparse::Csr a = sparse::random_square(100, 4, 23);
  const gp::Graph g = model::build_standard_graph(a);
  const part::GpResult r1 = gpartitionWith(g, 4, "grb.bisect,grb.retry", 1);
  const part::GpResult r8 = gpartitionWith(g, 4, "grb.bisect,grb.retry", 8);
  drain_warnings();
  EXPECT_GT(r1.numRecoveries, 0);
  EXPECT_EQ(r1.partition.assignment(), r8.partition.assignment());
  EXPECT_TRUE(gp::validate_partition(g, r1.partition).empty());
  EXPECT_TRUE(gp::is_balanced(g, r1.partition, 0.1));
}

TEST(GRecovery, CleanRunHasNoRecoveries) {
  const sparse::Csr a = sparse::random_square(80, 4, 31);
  const gp::Graph g = model::build_standard_graph(a);
  drain_warnings();
  const part::GpResult r = gpartitionWith(g, 4, "", 1);
  EXPECT_EQ(r.numRecoveries, 0);
  EXPECT_EQ(warning_count(), 0u);
}

TEST(GRecovery, StrictValidationPassesAndMatchesBasic) {
  const sparse::Csr a = sparse::random_square(90, 4, 37);
  const gp::Graph g = model::build_standard_graph(a);
  const part::GpResult basic = gpartitionWith(g, 4, "", 1);
  const part::GpResult strict =
      gpartitionWith(g, 4, "", 1, part::ValidateLevel::kStrict);
  EXPECT_EQ(basic.partition.assignment(), strict.partition.assignment());
}

TEST(GRecovery, GraphFmFaultAlsoRecovered) {
  // gfm.refine faults abort the whole multilevel gbisect; the engine's retry
  // path must still deliver a complete, balanced partition.
  const sparse::Csr a = sparse::random_square(70, 4, 41);
  const gp::Graph g = model::build_standard_graph(a);
  const part::GpResult r = gpartitionWith(g, 4, "gfm.refine", 1);
  drain_warnings();
  EXPECT_TRUE(gp::validate_partition(g, r.partition).empty());
  EXPECT_TRUE(gp::is_balanced(g, r.partition, 0.1));
}

// --------------------------------------------------- executor recovery ----

struct ExecFixture {
  sparse::Csr a;
  spmv::SpmvPlan plan;
  std::vector<double> x;
  std::vector<double> yRef;

  explicit ExecFixture(std::uint64_t seed) {
    a = sparse::random_square(60, 4, static_cast<idx_t>(seed));
    part::PartitionConfig cfg;
    cfg.seed = seed;
    const model::Decomposition d = model::run_finegrain(a, 4, cfg).decomp;
    plan = spmv::build_plan(a, d);
    Rng rng(seed);
    x.resize(static_cast<std::size_t>(a.num_cols()));
    for (auto& v : x) v = rng.uniform01();
    yRef = spmv::multiply(a, x);
  }
};

void expectClose(const std::vector<double>& y, const std::vector<double>& yRef) {
  ASSERT_EQ(y.size(), yRef.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], yRef[i], 1e-10);
}

TEST(ExecRecovery, TaskRetryRecovers) {
  const ExecFixture f(5);
  fault::ScopedSpec spec("exec.expand:1");
  drain_warnings();
  spmv::ExecStats stats;
  const auto y = spmv::execute_mt(f.plan, f.x, 2, &stats);
  expectClose(y, f.yRef);
  EXPECT_GE(stats.taskRetries, 1);
  EXPECT_FALSE(stats.serialFallback);
  EXPECT_GT(warning_count(), 0u);
  drain_warnings();
}

TEST(ExecRecovery, RepeatedFailureFallsBackToSerial) {
  const ExecFixture f(6);
  fault::ScopedSpec spec("exec.fold,exec.retry");
  drain_warnings();
  spmv::ExecStats stats;
  const auto y = spmv::execute_mt(f.plan, f.x, 4, &stats);
  expectClose(y, f.yRef);
  EXPECT_TRUE(stats.serialFallback);
  // Fallback recomputes everything serially, so traffic counts match a
  // clean run.
  spmv::ExecStats clean;
  const auto yClean = spmv::execute(f.plan, f.x, &clean);
  expectClose(yClean, f.yRef);
  EXPECT_EQ(stats.wordsSent, clean.wordsSent);
  EXPECT_EQ(stats.messagesSent, clean.messagesSent);
  drain_warnings();
}

TEST(ExecRecovery, RecoveredRunMatchesCleanRunExactly) {
  const ExecFixture f(7);
  std::vector<double> yClean;
  {
    spmv::ExecStats stats;
    yClean = spmv::execute_mt(f.plan, f.x, 3, &stats);
    EXPECT_EQ(stats.taskRetries, 0);
  }
  fault::ScopedSpec spec("exec.expand");
  const auto yFault = spmv::execute_mt(f.plan, f.x, 3, nullptr);
  drain_warnings();
  EXPECT_EQ(yClean, yFault);  // bitwise: same summation order either way
}

// ------------------------------------------------- fault-site tracing ----
// A firing fault site announces itself in the trace as one instant event
// (cat "fault") named after the site, so a captured trace shows exactly
// where the recovery ladder was entered. Table-driven over known_sites():
// a registered site without a trigger below fails the test, which keeps
// this coverage in sync with the registry.

/// Runs `op` (which arms its own fault spec) with tracing on and returns the
/// exported Chrome JSON. Typed errors escaping `op` are expected for sites
/// with no recovery path above them (FaultError for plain sites,
/// CancelledError for the simulated-cancellation sites).
std::string trigger_and_export(const std::function<void()>& op) {
  trace::enable(1u << 15);
  trace::reset();
  try {
    op();
  } catch (const Error&) {
  }
  std::ostringstream os;
  trace::write_chrome_trace(os);
  trace::disable();
  trace::reset();
  drain_warnings();
  return os.str();
}

/// Counts instant events for `site` by the exporter's fixed field order.
int count_site_instants(const std::string& json, const std::string& site) {
  const std::string needle = "\"cat\":\"fault\",\"name\":\"" + site + "\"";
  int n = 0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(FaultTracing, EveryKnownSiteEmitsExactlyOneInstantWhenArmed) {
  // Shared fixtures, built before any spec is armed.
  const sparse::Csr a = sparse::random_square(60, 4, 11);
  const model::FineGrainModel m = model::build_finegrain(a);
  const gp::Graph g = model::build_standard_graph(a);
  const ExecFixture f(5);

  model::Decomposition tinyD;
  tinyD.numProcs = 1;
  tinyD.nnzOwner = {0};
  tinyD.xOwner = {0};
  tinyD.yOwner = {0};

  const std::string mtx =
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n";

  // Each trigger arms one spec and provokes exactly one firing of the
  // target site (the spec may arm helper sites whose events we don't count).
  auto hgPartition = [&m](const std::string& spec, idx_t attempts) {
    part::PartitionConfig cfg;
    cfg.seed = 42;
    cfg.faultSpec = spec;
    cfg.maxBisectAttempts = attempts;
    part::partition_hypergraph(m.h, 2, cfg);
  };
  auto gpPartition = [&g](const std::string& spec, idx_t attempts) {
    part::PartitionConfig cfg;
    cfg.seed = 42;
    cfg.faultSpec = spec;
    cfg.maxBisectAttempts = attempts;
    part::partition_graph(g, 2, cfg);
  };

  std::map<std::string, std::function<void()>> triggers;
  triggers["decomp.open"] = [] {
    fault::ScopedSpec s("decomp.open");
    model::read_decomposition_file("/nonexistent/fghp.decomp");
  };
  triggers["decomp.read"] = [] {
    fault::ScopedSpec s("decomp.read");
    std::istringstream in;
    model::read_decomposition(in, "mem");
  };
  triggers["decomp.write"] = [&tinyD] {
    fault::ScopedSpec s("decomp.write");
    std::ostringstream out;
    model::write_decomposition(out, tinyD);
  };
  triggers["exec.expand"] = [&f] {
    fault::ScopedSpec s("exec.expand:1");  // proc 0's expand task, attempt 0
    spmv::execute_mt(f.plan, f.x, 2, nullptr);
  };
  triggers["exec.fold"] = [&f] {
    fault::ScopedSpec s("exec.fold:1");
    spmv::execute_mt(f.plan, f.x, 2, nullptr);
  };
  triggers["exec.retry"] = [&f] {
    // Proc 0 fails on attempt 0 and again on the retry -> serial fallback
    // (whose path has no fault sites); exec.retry fires exactly once.
    fault::ScopedSpec s("exec.expand:1,exec.retry:1");
    spmv::execute_mt(f.plan, f.x, 2, nullptr);
  };
  triggers["fm.refine"] = [&] { hgPartition("fm.refine", 1); };
  triggers["gfm.refine"] = [&] { gpPartition("gfm.refine", 1); };
  triggers["hg.build"] = [] {
    fault::ScopedSpec s("hg.build");
    hg::HypergraphBuilder b(2);
    const std::vector<idx_t> pins{0, 1};
    b.add_net(pins);
    std::move(b).build();
  };
  triggers["mmio.open"] = [] {
    fault::ScopedSpec s("mmio.open");  // checked before the file is touched
    sparse::read_matrix_market_file("/nonexistent/fghp.mtx");
  };
  triggers["mmio.read"] = [&mtx] {
    fault::ScopedSpec s("mmio.read:1");
    std::istringstream in(mtx);
    sparse::read_matrix_market(in, "mem");
  };
  // The geometric fast path shares the registry: geo.* arms the RB engine's
  // bisect/retry sites for the geometric traits. Same attempt-capping scheme
  // as rb.retry below.
  const part::geo::GeoPoints geoPts = model::build_finegrain_points(a).pts;
  auto geoPartition = [&geoPts](const std::string& spec, idx_t attempts) {
    part::PartitionConfig cfg;
    cfg.seed = 42;
    cfg.faultSpec = spec;
    cfg.maxBisectAttempts = attempts;
    part::geo::partition_points_geometric(geoPts, 2, cfg);
  };
  triggers["geo.split"] = [&] { geoPartition("geo.split:1", 3); };
  triggers["geo.retry"] = [&] { geoPartition("geo.split:1,geo.retry:1", 2); };
  triggers["rb.bisect"] = [&] { hgPartition("rb.bisect:1", 3); };
  // Attempt 0 fires rb.bisect, attempt 1 fires rb.retry, and capping the
  // attempts at 2 keeps the retry site from matching again before the
  // greedy fallback takes over.
  triggers["rb.retry"] = [&] { hgPartition("rb.bisect:1,rb.retry:1", 2); };
  triggers["grb.bisect"] = [&] { gpPartition("grb.bisect:1", 3); };
  triggers["grb.retry"] = [&] { gpPartition("grb.bisect:1,grb.retry:1", 2); };
  // Simulated cancellation at the root RB node: the check-point throws
  // CancelledError before any work, so the site fires exactly once.
  triggers["cancel.rb.node"] = [&] { hgPartition("cancel.rb.node:1", 3); };
  triggers["cancel.exec.iter"] = [&f] {
    fault::ScopedSpec s("cancel.exec.iter:1");
    spmv::ExecSession session(f.plan);
    std::vector<double> y;
    session.run(f.x, y);
  };
  triggers["watchdog.stall"] = [] {
    // A synchronous scan on a private pool: the armed site appends one
    // simulated stall (and its instant) deterministically, no sleeping.
    fault::ScopedSpec s("watchdog.stall:1");
    ThreadPool pool(2);
    pool.watchdog_scan();
  };

  for (const std::string& site : fault::known_sites()) {
    const auto it = triggers.find(site);
    if (it == triggers.end()) {
      ADD_FAILURE() << "fault site '" << site
                    << "' has no trace trigger — add one to this table";
      continue;
    }
    const std::string json = trigger_and_export(it->second);
    EXPECT_EQ(count_site_instants(json, site), 1)
        << "site '" << site << "' must emit exactly one fault instant";
  }
}

// --------------------------------------------------------- plan checks ----

TEST(PlanValidate, CleanPlanPasses) {
  const ExecFixture f(8);
  EXPECT_TRUE(exec::validate_schedule(f.plan).empty());
  EXPECT_NO_THROW(exec::validate_schedule_or_throw(f.plan));
}

TEST(PlanValidate, CorruptOwnershipCaught) {
  ExecFixture f(9);
  auto& xComm = f.plan.inComm[0];
  ASSERT_FALSE(xComm[0].owned.empty());
  xComm[0].owned.push_back(xComm[1].owned.empty() ? xComm[0].owned.front()
                                                  : xComm[1].owned.front());
  try {
    exec::validate_schedule_or_throw(f.plan);
    FAIL() << "double ownership accepted";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.context().phase, "schedule-validate");
  }
}

TEST(PlanValidate, MismatchedRecvCaught) {
  ExecFixture f(10);
  bool mutated = false;
  for (auto& sc : f.plan.inComm[0]) {
    if (!sc.recvs.empty() && !sc.recvs[0].ids.empty()) {
      sc.recvs[0].ids[0] = sc.recvs[0].ids[0] + 1;
      mutated = true;
      break;
    }
  }
  if (!mutated) GTEST_SKIP() << "decomposition produced no expand traffic";
  EXPECT_THROW(exec::validate_schedule_or_throw(f.plan), InvariantError);
}

TEST(PlanValidate, UnsortedMessageIdsCaught) {
  // The determinism contract: every message's id list is strictly increasing
  // (sorted, deduplicated). Reversing one send's ids — and its paired recv's,
  // so the pairing check stays satisfied and only the ordering contract is
  // violated — must be rejected.
  ExecFixture f(11);
  bool mutated = false;
  for (idx_t p = 0; p < f.plan.numProcs && !mutated; ++p) {
    auto& sends = f.plan.inComm[0][static_cast<std::size_t>(p)].sends;
    for (std::size_t s = 0; s < sends.size(); ++s) {
      if (sends[s].ids.size() < 2) continue;
      std::reverse(sends[s].ids.begin(), sends[s].ids.end());
      auto& peer = f.plan.inComm[0][static_cast<std::size_t>(sends[s].peer)];
      for (auto& recv : peer.recvs) {
        if (recv.peer == p && recv.pairIndex == static_cast<idx_t>(s))
          recv.ids = sends[s].ids;
      }
      mutated = true;
      break;
    }
  }
  if (!mutated) GTEST_SKIP() << "decomposition produced no multi-word message";
  const auto problems = exec::validate_schedule(f.plan);
  ASSERT_FALSE(problems.empty());
  bool mentioned = false;
  for (const auto& msg : problems)
    mentioned = mentioned || msg.find("not strictly increasing") != std::string::npos;
  EXPECT_TRUE(mentioned);
  EXPECT_THROW(exec::validate_schedule_or_throw(f.plan), InvariantError);
}

TEST(PlanValidate, DuplicateMessageIdsCaught) {
  // Duplicates are the other half of the contract (strictly increasing, not
  // merely non-decreasing): a repeated id in a fold send must be rejected.
  ExecFixture f(12);
  bool mutated = false;
  for (idx_t p = 0; p < f.plan.numProcs && !mutated; ++p) {
    auto& sends = f.plan.outComm[static_cast<std::size_t>(p)].sends;
    for (std::size_t s = 0; s < sends.size(); ++s) {
      if (sends[s].ids.empty()) continue;
      sends[s].ids.push_back(sends[s].ids.back());
      auto& peer = f.plan.outComm[static_cast<std::size_t>(sends[s].peer)];
      for (auto& recv : peer.recvs) {
        if (recv.peer == p && recv.pairIndex == static_cast<idx_t>(s))
          recv.ids = sends[s].ids;
      }
      mutated = true;
      break;
    }
  }
  if (!mutated) GTEST_SKIP() << "decomposition produced no fold traffic";
  EXPECT_THROW(exec::validate_schedule_or_throw(f.plan), InvariantError);
}

}  // namespace
}  // namespace fghp
