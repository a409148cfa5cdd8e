// Characterization ("golden") tests for the SpMV plan -> compiled-image
// pipeline.
//
// These pin, as FNV-1a hashes, (1) the full content of the SpMV plan (an
// exec::Schedule) built from a fine-grain decomposition, (2) every slot table of the compiled
// execution image with the cache reorder on and off, and (3) the bits of the
// executed y = A x, for fixed (generator matrix, seed, K) at 1, 2 and 8
// threads. They are the safety net for refactors of the execution core: any
// change to schedule emission order, slot assignment, message translation or
// summation order shows up as a hash mismatch here.
//
// Regenerating: FGHP_GOLDEN_PRINT=1 ./test_exec_golden prints the current
// signatures in the exact table form below. Only paste new values when an
// output change is *intended* — this file exists to make silent drift loud.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "models/finegrain.hpp"
#include "sparse/generators.hpp"
#include "sparse/reorder.hpp"
#include "spgemm/finegrain.hpp"
#include "spgemm/plan.hpp"
#include "spgemm/tasks.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace fghp {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint64_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t u : v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void push(std::vector<std::uint64_t>& w, idx_t v) {
  w.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}
void push(std::vector<std::uint64_t>& w, const std::vector<idx_t>& v) {
  push(w, static_cast<idx_t>(v.size()));
  for (idx_t x : v) push(w, x);
}
void push(std::vector<std::uint64_t>& w, const std::vector<double>& v) {
  push(w, static_cast<idx_t>(v.size()));
  for (double x : v) w.push_back(std::bit_cast<std::uint64_t>(x));
}
void push(std::vector<std::uint64_t>& w, const std::vector<exec::Msg>& msgs) {
  push(w, static_cast<idx_t>(msgs.size()));
  for (const exec::Msg& m : msgs) {
    push(w, m.peer);
    push(w, m.pairIndex);
    push(w, m.ids);
  }
}

/// Every per-processor list of the plan. The push order is the field order
/// of the pre-refactor SpMV-specific plan struct (numRows, numCols, then per
/// processor rows, cols, vals, ownedX, ownedY, xSends, xRecvs, ySends,
/// yRecvs), read through the schedule's tasks / x = inComm[0] / y = outComm
/// views — the hashes below were captured from that struct.
std::uint64_t plan_hash(const spmv::SpmvPlan& plan) {
  std::vector<std::uint64_t> w;
  push(w, plan.numProcs);
  push(w, plan.output.size);     // numRows
  push(w, plan.inputs[0].size);  // numCols
  for (std::size_t p = 0; p < plan.tasks.size(); ++p) {
    const exec::SpaceComm& x = plan.inComm[0][p];
    const exec::SpaceComm& y = plan.outComm[p];
    push(w, plan.tasks[p].outId);      // rows
    push(w, plan.tasks[p].rhsId);      // cols
    push(w, plan.tasks[p].constVals);  // vals
    push(w, x.owned);
    push(w, y.owned);
    push(w, x.sends);
    push(w, x.recvs);
    push(w, y.sends);
    push(w, y.recvs);
  }
  return fnv1a(w);
}

/// Every table of the compiled image: the prefix offsets, the task CSR, and
/// all gather/scatter/message translations. The push order is the field
/// order of the pre-refactor SpMV-specific CompiledPlan (rowOff, xOff,
/// ownXOff, ...), expressed through the generic image's x = in[0] / y = out
/// views — the hashes below were captured from that pre-refactor struct, so
/// keeping this order is what makes them comparable across the refactor.
std::uint64_t image_hash(const spmv::CompiledPlan& c) {
  std::vector<std::uint64_t> w;
  push(w, c.numProcs);
  push(w, c.out.size);        // numRows
  push(w, c.in[0].size);      // numCols
  push(w, c.out.off);         // rowOff
  push(w, c.in[0].off);       // xOff
  push(w, c.in[0].ownOff);    // ownXOff
  push(w, c.out.ownOff);      // ownYOff
  push(w, c.in[0].sendOff);   // xSendOff
  push(w, c.in[0].sendMsgOff);  // xSendMsgOff
  push(w, c.in[0].recvOff);   // xRecvOff
  push(w, c.out.sendOff);     // ySendOff
  push(w, c.out.sendMsgOff);  // ySendMsgOff
  push(w, c.out.recvOff);     // yRecvOff
  push(w, c.groupPtr);        // rowPtr
  push(w, c.rhsSlot);         // colSlot
  push(w, c.constVals);       // vals
  push(w, c.in[0].slotGlobal);  // xColGlobal
  push(w, c.in[0].ownId);     // ownXCol
  push(w, c.in[0].ownSlot);   // ownXSlot
  push(w, c.in[0].sendId);    // xSendCol
  push(w, c.in[0].recvSlot);  // xRecvSlot
  push(w, c.in[0].recvSrc);   // xRecvSrc
  push(w, c.out.ownId);       // ownYRow
  push(w, c.out.ownSlot);     // ownYSlot
  push(w, c.out.sendSlot);    // ySendSlot
  push(w, c.out.sendId);      // ySendRow
  push(w, c.out.recvId);      // yRecvRow
  push(w, c.out.recvSrc);     // yRecvSrc
  push(w, c.reorderedProcs);
  return fnv1a(w);
}

std::uint64_t y_hash(const std::vector<double>& y) {
  std::vector<std::uint64_t> w;
  push(w, y);
  return fnv1a(w);
}

/// Signature of one pipeline run: plan content, image content with the cache
/// reorder on and off, and the executed result bits (identical at every
/// thread count by the bit-identity contract).
struct Sig {
  std::uint64_t plan = 0;
  std::uint64_t image = 0;
  std::uint64_t imagePlain = 0;  // CompileOptions::cacheReorder = false
  std::uint64_t y = 0;

  bool operator==(const Sig&) const = default;
};

// The generator instances the goldens are pinned on: a structured mesh and
// an irregular random pattern (same as test_rb_golden), plus a randomly
// shuffled mesh whose blocks the cache reorder actually adopts — so the
// RCM-folded slot tables are pinned too, not just the first-use numbering.
sparse::Csr mesh_matrix() { return sparse::stencil2d(20, 20); }
sparse::Csr irregular_matrix() { return sparse::random_square(250, 5, 13); }
sparse::Csr shuffled_matrix() {
  Rng rng(7);
  const sparse::Csr a = sparse::stencil2d(20, 20);
  return sparse::permute_symmetric(a, rng.permutation(a.num_rows()));
}

/// Deterministic x with exactly-representable values (no libm involved).
std::vector<double> probe_x(idx_t n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j)
    x[static_cast<std::size_t>(j)] = 1.0 + 0.125 * static_cast<double>(j % 7);
  return x;
}

Sig run_case(const sparse::Csr& a, idx_t K, idx_t threads) {
  part::PartitionConfig cfg;
  cfg.seed = 42;
  cfg.numThreads = threads;
  cfg.minParallelVertices = 64;
  const model::ModelRun run = model::run_finegrain(a, K, cfg);
  const spmv::SpmvPlan plan = spmv::build_plan(a, run.decomp);

  Sig s;
  s.plan = plan_hash(plan);
  spmv::CompileOptions plain;
  plain.cacheReorder = false;
  s.imagePlain = image_hash(exec::compile(plan, plain));

  spmv::ExecSession session(plan);
  s.image = image_hash(session.compiled());
  const std::vector<double> x = probe_x(a.num_cols());
  std::vector<double> y;
  session.run_mt(x, y, threads);
  s.y = y_hash(y);

  // The serial path must produce the same bits as any MT width.
  std::vector<double> ys;
  session.run(x, ys);
  EXPECT_EQ(s.y, y_hash(ys));
  return s;
}

struct Case {
  const char* matrix;  // "mesh", "irregular"
  idx_t K;
  Sig expected;        // at every thread count (thread-count independence)
};

// Golden signatures captured from the pre-refactor (PR 7 state) pipeline;
// the workload-agnostic execution core must reproduce them bit-identically.
const Case kGolden[] = {
    {"mesh", 4, {0x98e3df394b1209e6ULL, 0x65fb064450f30926ULL, 0x65fb064450f30926ULL, 0x82e98026301bf84bULL}},
    {"mesh", 8, {0x2d9b4202ece5b849ULL, 0x8fb6afeb1e9df7c5ULL, 0x8fb6afeb1e9df7c5ULL, 0x82e98026301bf84bULL}},
    {"irregular", 4, {0x7ecc2d66995c8b5dULL, 0xa714a5697f7cbf29ULL, 0xa714a5697f7cbf29ULL, 0x6c7e5d43c1241a70ULL}},
    {"irregular", 8, {0x9fc857e4e0eb81dbULL, 0xb0afb93e16a9d40eULL, 0xb0afb93e16a9d40eULL, 0xb8aa7ddaba900412ULL}},
    {"shuffled", 4, {0x38743eef05b55e43ULL, 0x7e660cf498cbe57eULL, 0x7a13cab89bd57d38ULL, 0x71e5cbb50d88982eULL}},
};

Sig run_case(const Case& c, idx_t threads) {
  const std::string name = c.matrix;
  const sparse::Csr a = name == "mesh"        ? mesh_matrix()
                        : name == "irregular" ? irregular_matrix()
                                              : shuffled_matrix();
  return run_case(a, c.K, threads);
}

TEST(ExecGolden, PrintCurrentSignatures) {
  if (!env_flag("FGHP_GOLDEN_PRINT")) GTEST_SKIP() << "set FGHP_GOLDEN_PRINT=1 to print";
  for (const Case& c : kGolden) {
    const Sig s = run_case(c, 1);
    std::printf("    {\"%s\", %d, {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL}},\n",
                c.matrix, static_cast<int>(c.K),
                static_cast<unsigned long long>(s.plan),
                static_cast<unsigned long long>(s.image),
                static_cast<unsigned long long>(s.imagePlain),
                static_cast<unsigned long long>(s.y));
  }
}

class ExecGoldenSweep : public ::testing::TestWithParam<idx_t> {};

TEST_P(ExecGoldenSweep, PinnedAtEveryThreadCount) {
  const idx_t threads = GetParam();
  for (const Case& c : kGolden) {
    const Sig s = run_case(c, threads);
    EXPECT_EQ(s.plan, c.expected.plan)
        << "plan " << c.matrix << " K=" << c.K << " threads=" << threads;
    EXPECT_EQ(s.image, c.expected.image)
        << "image " << c.matrix << " K=" << c.K << " threads=" << threads;
    EXPECT_EQ(s.imagePlain, c.expected.imagePlain)
        << "imagePlain " << c.matrix << " K=" << c.K << " threads=" << threads;
    EXPECT_EQ(s.y, c.expected.y)
        << "y " << c.matrix << " K=" << c.K << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecGoldenSweep, ::testing::Values(1, 2, 8));

// ---------------------------------------------------------------------------
// SpGEMM: the same pins for C = A * A through spgemm::build_schedule — every
// field of the schedule, every table of its (gathered, two-input) image, and
// the bits of C.

void push(std::vector<std::uint64_t>& w, const std::string& str) {
  push(w, static_cast<idx_t>(str.size()));
  for (char ch : str) w.push_back(static_cast<unsigned char>(ch));
}
void push(std::vector<std::uint64_t>& w, const exec::SpaceComm& sc) {
  push(w, sc.owned);
  push(w, sc.sends);
  push(w, sc.recvs);
}

/// Every field of the schedule, in declaration order.
std::uint64_t schedule_hash(const exec::Schedule& s) {
  std::vector<std::uint64_t> w;
  push(w, std::string(s.traceCat));
  push(w, std::string(s.traceIteration));
  push(w, s.metricPrefix);
  push(w, s.numProcs);
  push(w, static_cast<idx_t>(s.inputs.size()));
  for (const exec::Space& sp : s.inputs) {
    push(w, sp.name);
    push(w, sp.size);
  }
  push(w, s.output.name);
  push(w, s.output.size);
  push(w, static_cast<idx_t>(s.lhsConst));
  push(w, s.lhsSpace);
  push(w, s.rhsSpace);
  for (const auto& space : s.inComm)
    for (const exec::SpaceComm& sc : space) push(w, sc);
  for (const exec::SpaceComm& sc : s.outComm) push(w, sc);
  for (const exec::ProcTasks& t : s.tasks) {
    push(w, t.outId);
    push(w, t.lhsId);
    push(w, t.rhsId);
    push(w, t.constVals);
  }
  return fnv1a(w);
}

/// Every table of a generic image, all input spaces, in declaration order.
std::uint64_t full_image_hash(const exec::Image& c) {
  std::vector<std::uint64_t> w;
  push(w, std::string(c.traceCat));
  push(w, std::string(c.traceIteration));
  push(w, c.metricPrefix);
  push(w, c.numProcs);
  push(w, static_cast<idx_t>(c.lhsConst));
  push(w, c.lhsSpace);
  push(w, c.rhsSpace);
  push(w, static_cast<idx_t>(c.in.size()));
  for (const exec::InSpaceImage& in : c.in) {
    push(w, in.size);
    push(w, in.off);
    push(w, in.slotGlobal);
    push(w, in.ownOff);
    push(w, in.ownId);
    push(w, in.ownSlot);
    push(w, in.sendOff);
    push(w, in.sendMsgOff);
    push(w, in.sendId);
    push(w, in.recvOff);
    push(w, in.recvSlot);
    push(w, in.recvSrc);
  }
  push(w, c.out.size);
  push(w, c.out.off);
  push(w, c.out.ownOff);
  push(w, c.out.ownId);
  push(w, c.out.ownSlot);
  push(w, c.out.sendOff);
  push(w, c.out.sendMsgOff);
  push(w, c.out.sendSlot);
  push(w, c.out.sendId);
  push(w, c.out.recvOff);
  push(w, c.out.recvId);
  push(w, c.out.recvSrc);
  push(w, c.groupPtr);
  push(w, c.rhsSlot);
  push(w, c.lhsSlot);
  push(w, c.constVals);
  push(w, static_cast<idx_t>(c.cacheReordered));
  push(w, c.reorderedProcs);
  return fnv1a(w);
}

struct SpgemmSig {
  std::uint64_t schedule = 0;
  std::uint64_t image = 0;
  std::uint64_t c = 0;
};

SpgemmSig run_spgemm_case(const sparse::Csr& a, idx_t K, idx_t threads) {
  part::PartitionConfig cfg;
  cfg.seed = 42;
  cfg.numThreads = threads;
  cfg.minParallelVertices = 64;
  const spgemm::TaskGraph t = spgemm::build_tasks(a, a);
  const spgemm::SpgemmRun run = spgemm::run_spgemm_finegrain(t, K, cfg);

  SpgemmSig s;
  s.schedule = schedule_hash(spgemm::build_schedule(t, run.decomp));
  spgemm::SpgemmSession session(t, run.decomp);
  s.image = full_image_hash(session.image());
  std::vector<double> c;
  session.run_mt(a.values(), a.values(), c, threads);
  s.c = y_hash(c);

  std::vector<double> cs;
  session.run(a.values(), a.values(), cs);
  EXPECT_EQ(s.c, y_hash(cs));
  return s;
}

struct SpgemmCase {
  const char* matrix;  // "mesh", "irregular"
  idx_t K;
  SpgemmSig expected;  // at every thread count
};

sparse::Csr spgemm_mesh() { return sparse::stencil2d(10, 10); }
sparse::Csr spgemm_irregular() { return sparse::random_square(80, 4, 5); }

// Captured before spgemm::build_schedule shared its message emission with
// the SpMV builder; any refactor of either must reproduce them.
const SpgemmCase kSpgemmGolden[] = {
    {"mesh", 4, {0x297d0bf20ea57b62ULL, 0xfaf67fc9782b7ca1ULL, 0xba648d2fab4f921fULL}},
    {"mesh", 8, {0x08dbe9f488d5b817ULL, 0x8a56d8740158c524ULL, 0xba648d2fab4f921fULL}},
    {"irregular", 4, {0x0b6df357edf089c1ULL, 0x0630727710becaa6ULL, 0x341d17ec43d68220ULL}},
    {"irregular", 8, {0x9251b2f3b5f230a1ULL, 0xdeac3204cb06713bULL, 0x851d13d19c05d6cbULL}},
};

SpgemmSig run_spgemm_case(const SpgemmCase& c, idx_t threads) {
  const std::string name = c.matrix;
  return run_spgemm_case(name == "mesh" ? spgemm_mesh() : spgemm_irregular(), c.K,
                         threads);
}

TEST(ExecGolden, PrintCurrentSpgemmSignatures) {
  if (!env_flag("FGHP_GOLDEN_PRINT")) GTEST_SKIP() << "set FGHP_GOLDEN_PRINT=1 to print";
  for (const SpgemmCase& c : kSpgemmGolden) {
    const SpgemmSig s = run_spgemm_case(c, 1);
    std::printf("    {\"%s\", %d, {0x%016llxULL, 0x%016llxULL, 0x%016llxULL}},\n",
                c.matrix, static_cast<int>(c.K),
                static_cast<unsigned long long>(s.schedule),
                static_cast<unsigned long long>(s.image),
                static_cast<unsigned long long>(s.c));
  }
}

class SpgemmGoldenSweep : public ::testing::TestWithParam<idx_t> {};

TEST_P(SpgemmGoldenSweep, PinnedAtEveryThreadCount) {
  const idx_t threads = GetParam();
  for (const SpgemmCase& c : kSpgemmGolden) {
    const SpgemmSig s = run_spgemm_case(c, threads);
    EXPECT_EQ(s.schedule, c.expected.schedule)
        << "schedule " << c.matrix << " K=" << c.K << " threads=" << threads;
    EXPECT_EQ(s.image, c.expected.image)
        << "image " << c.matrix << " K=" << c.K << " threads=" << threads;
    EXPECT_EQ(s.c, c.expected.c) << "C " << c.matrix << " K=" << c.K
                                 << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpgemmGoldenSweep, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace fghp
