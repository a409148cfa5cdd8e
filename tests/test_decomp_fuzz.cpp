// Seeded mutation test for the decomposition reader (models/decomp_io).
// Decomposition files of a small matrix are mutated (byte flips,
// truncations, duplicated or deleted lines, inserted digits, owner values
// reassigned to other processors) and read along the path `fghp_tool
// simulate` takes with a file it cannot trust. Every mutant must either
// load or raise a typed FormatError / IoError. A mutant
// that loads and passes model::validate against the matrix (and the volume
// analysis's processor bound) must then build a plan that passes
// exec::validate_schedule_or_throw and compute y = A x exactly: a corrupt
// owner map can only move work and traffic, never break the executor.
//
// Version-2 files carry a checksum, so their mutants mostly stop at the last
// line; version-1 files have none, so their body mutants reach the owner
// parser and the plan builder. Header counts that once narrowed into idx_t
// or reached an allocation before their entries were read are fixed seeds,
// and every test runs under fuzz::AllocationCap (fuzz_support.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "comm/volume.hpp"
#include "exec/schedule.hpp"
#include "fuzz_support.hpp"
#include "models/decomp_io.hpp"
#include "models/finegrain.hpp"
#include "sparse/generators.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fghp::model {
namespace {

constexpr int kMutants = 2000;

sparse::Csr fuzz_matrix() { return sparse::random_square(12, 3, 4); }

Decomposition random_decomposition(const sparse::Csr& a, idx_t K, std::uint64_t seed) {
  Rng rng(seed);
  Decomposition d;
  d.numProcs = K;
  auto fill = [&](std::vector<idx_t>& v, idx_t n) {
    v.resize(static_cast<std::size_t>(n));
    for (idx_t& p : v) p = static_cast<idx_t>(rng.next_below(static_cast<std::uint64_t>(K)));
  };
  fill(d.nnzOwner, a.nnz());
  fill(d.xOwner, a.num_cols());
  fill(d.yOwner, a.num_rows());
  return d;
}

std::string version2(const Decomposition& d) {
  std::ostringstream out;
  write_decomposition(out, d);
  return out.str();
}

/// The same file in version 1: banner 1, no checksum line.
std::string version1(const Decomposition& d) {
  std::string text = version2(d);
  text[text.find('2')] = '1';  // the banner's version digit comes first
  text.erase(text.rfind("checksum "));
  return text;
}

/// Header counts that narrowed into idx_t or were reserved before reading.
std::vector<std::string> count_seeds() {
  return {
      "fghp-decomposition 1\nprocs 4294967298\nnnz 0\nvec 0\n",
      "fghp-decomposition 2\nprocs 4294967298\nnnz 0\nvec 0\nchecksum 0000000000000000\n",
      "fghp-decomposition 1\nprocs 2\nnnz 2721474836486\n0\n",
      "fghp-decomposition 1\nprocs 2\nnnz 1\n0\nvec 2721474836486\n0 1\n",
  };
}

std::vector<std::string> seed_files(const sparse::Csr& a) {
  std::vector<std::string> seeds = count_seeds();
  part::PartitionConfig cfg;
  cfg.seed = 3;
  const Decomposition fine = run_finegrain(a, 4, cfg).decomp;
  const Decomposition rand2 = random_decomposition(a, 2, 5);
  const Decomposition rand5 = random_decomposition(a, 5, 6);
  // Version-1 bodies carry most of the weight: only they reach the planner.
  for (const Decomposition* d : {&fine, &rand2, &rand5}) {
    seeds.push_back(version1(*d));
    seeds.push_back(version1(*d));
    seeds.push_back(version2(*d));
  }
  return seeds;
}

/// The decomposition-aware edit: one owner value (a number alone on its
/// line, or either number of a vector line) becomes a random processor id
/// in [0, 6), which may or may not lie below the file's processor count.
/// Generic edits rarely leave a file loadable; these move work and traffic
/// between processors instead.
void reassign_owner(std::string& text, Rng& rng) {
  std::vector<std::size_t> starts;  // first byte of every owner number
  for (std::size_t b = 0; b < text.size();) {
    const std::size_t e = std::min(text.find('\n', b), text.size());
    if (b < e && text[b] >= '0' && text[b] <= '9') {
      starts.push_back(b);
      const std::size_t sp = text.find(' ', b);
      if (sp < e && sp + 1 < e) starts.push_back(sp + 1);
    }
    b = e + 1;
  }
  if (starts.empty()) return;
  const std::size_t at = starts[static_cast<std::size_t>(rng.next_below(starts.size()))];
  std::size_t end = at;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  text.replace(at, end - at, std::to_string(rng.next_below(6)));
}

TEST(DecompFuzz, EveryMutantLoadsOrRaisesATypedError) {
  const fuzz::AllocationCap cap;
  if (!cap.capped()) GTEST_SKIP() << "cannot cap the address space";
  const sparse::Csr a = fuzz_matrix();
  const std::vector<std::string> seeds = seed_files(a);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = 1.0 + 0.25 * static_cast<double>(j % 5);
  const std::vector<double> yRef = spmv::multiply(a, x);

  Rng rng(39001);
  int loaded = 0, rejected = 0, planned = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string text = seeds[static_cast<std::size_t>(m) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) {
      if (rng.bernoulli(0.5)) fuzz::mutate(text, rng);
      else reassign_owner(text, rng);
    }
    Decomposition d;
    try {
      std::istringstream in(text);
      d = read_decomposition(in, "mutant.decomp");
      ++loaded;
    } catch (const FormatError&) {
      ++rejected;
      continue;
    } catch (const IoError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " raised an untyped error: " << e.what() << "\n"
                    << fuzz::printable(text);
      continue;
    }
    // The checks simulate runs before planning: shapes against the matrix,
    // then the volume analysis, which bounds the processor count.
    try {
      validate(a, d);
      comm::analyze(a, d);
    } catch (const std::invalid_argument&) {
      continue;
    }
    try {
      const spmv::SpmvPlan plan = spmv::build_plan(a, d);
      exec::validate_schedule_or_throw(plan);
      spmv::ExecSession session(plan);
      std::vector<double> y;
      session.run(x, y);
      ASSERT_EQ(y.size(), yRef.size());
      for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_LE(std::abs(y[i] - yRef[i]), 1e-12 * (1.0 + std::abs(yRef[i])))
            << "mutant " << m << " row " << i << ": " << fuzz::printable(text);
      ++planned;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " loaded and validated but failed to plan or run: "
                    << e.what() << "\n" << fuzz::printable(text);
    }
  }
  // All three outcomes occur: mutants are rejected, load, and reach the
  // planner with owner maps the partitioner never produced.
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_GT(planned, kMutants / 20);
  std::printf("%d mutants: %d loaded (%d planned and ran), %d rejected\n", kMutants, loaded,
              planned, rejected);
}

TEST(DecompFuzz, CountSeedsAreFormatErrors) {
  const fuzz::AllocationCap cap;
  if (!cap.capped()) GTEST_SKIP() << "cannot cap the address space";
  for (const std::string& seed : count_seeds()) {
    std::istringstream in(seed);
    EXPECT_THROW(read_decomposition(in), FormatError) << fuzz::printable(seed);
  }
}

}  // namespace
}  // namespace fghp::model
