// Seeded mutation test for the Matrix Market reader. Small .mtx files,
// plus size lines that once narrowed or exhausted memory, are mutated
// (byte flips, truncations, duplicated or deleted lines, inserted digits)
// and parsed. Every mutant must either parse into a matrix that round-trips
// or raise a typed FormatError / IoError: never another exception, a crash
// or a sanitizer report. A mutated size line can ask for a huge row
// pointer, so each test runs under fuzz::AllocationCap (fuzz_support.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_support.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fghp::sparse {
namespace {

constexpr int kMutants = 2000;

/// Size lines that narrowed into idx_t or exhausted memory.
std::vector<std::string> size_line_seeds() {
  return {
      "%%MatrixMarket matrix coordinate real general\n4294967298 4294967298 1\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n4294967298 2 1\n3 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n2 4294967298 1\n1 3 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 1\n1 1 1.0\n",
  };
}

std::vector<std::string> seed_files() {
  std::vector<std::string> seeds = size_line_seeds();
  seeds.insert(seeds.end(), {
      "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 4\n"
      "1 1 1.5\n1 3 -2\n2 2 3e-2\n3 1 4\n",
      "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 5\n3 3 1\n",
      "%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 2\n2 1 3\n3 2 -7\n",
      "%%MatrixMarket matrix coordinate pattern general\n2 3 3\n1 2\n2 3\n1 2\n",
      "%%MatrixMarket matrix coordinate real general\r\n\r\n2 2 2\r\n1 1 +1.5\r\n2 2 -0\r\n",
      "%%MatrixMarket matrix coordinate real general\n0 4 0\n",
  });
  std::ostringstream out;
  write_matrix_market(out, random_square(12, 3, 4));
  seeds.push_back(out.str());
  return seeds;
}

TEST(MmioFuzz, EveryMutantParsesOrRaisesATypedError) {
  const fuzz::AllocationCap cap;
  if (!cap.capped()) GTEST_SKIP() << "cannot cap the address space";
  const std::vector<std::string> seeds = seed_files();
  Rng rng(20011);
  int parsed = 0, rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string text = seeds[static_cast<std::size_t>(m) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) fuzz::mutate(text, rng);
    std::istringstream in(text);
    try {
      const Csr a = read_matrix_market(in, "mutant.mtx");
      std::ostringstream out;
      write_matrix_market(out, a);
      std::istringstream again(out.str());
      ASSERT_EQ(read_matrix_market(again), a) << "mutant " << m << ": " << fuzz::printable(text);
      ++parsed;
    } catch (const FormatError&) {
      ++rejected;
    } catch (const IoError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " raised an untyped error: " << e.what() << "\n"
                    << fuzz::printable(text);
    }
  }
  // Both outcomes occur, so the mutants neither all break nor all miss the grammar.
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
  std::printf("%d mutants: %d parsed, %d rejected\n", kMutants, parsed, rejected);
}

TEST(MmioFuzz, SizeLineSeedsAreFormatErrorsOfTheSizeLine) {
  const fuzz::AllocationCap cap;
  if (!cap.capped()) GTEST_SKIP() << "cannot cap the address space";
  for (const std::string& seed : size_line_seeds()) {
    std::istringstream in(seed);
    try {
      read_matrix_market(in);
      ADD_FAILURE() << "parsed: " << fuzz::printable(seed);
    } catch (const FormatError& e) {
      EXPECT_EQ(e.context().line, 2) << e.what();
    }
  }
}

}  // namespace
}  // namespace fghp::sparse
