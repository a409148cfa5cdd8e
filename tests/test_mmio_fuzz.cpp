// Seeded mutation test for the Matrix Market reader. Small .mtx files,
// plus size lines that once narrowed or exhausted memory, are mutated
// (byte flips, truncations, duplicated or deleted lines, inserted digits)
// and parsed. Every mutant must either parse into a matrix that round-trips
// or raise a typed FormatError / IoError: never another exception, a crash
// or a sanitizer report.
//
// A mutated size line can ask for a huge row pointer, so the test caps
// allocation first: RLIMIT_AS in the plain build, and ASan's
// max_allocation_size_mb in the sanitizer build (ASan reserves its shadow
// memory up front, so an address-space cap would stop it). The binary links
// tests/alloc_counter.cpp, whose operator new sits on malloc: under ASan a
// refused malloc then surfaces as std::bad_alloc instead of an abort.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FGHP_FUZZ_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define FGHP_FUZZ_ASAN 1
#endif

#ifdef FGHP_FUZZ_ASAN
extern "C" const char* __asan_default_options() {
  return "max_allocation_size_mb=256:allocator_may_return_null=1";
}
#endif
// An undefined-behaviour report fails the run instead of scrolling past.
extern "C" const char* __ubsan_default_options() { return "halt_on_error=1:print_stacktrace=1"; }

namespace fghp::sparse {
namespace {

constexpr int kMutants = 2000;
constexpr rlim_t kAddressSpaceCap = rlim_t{256} << 20;

/// Caps allocation for the scope: the soft address-space limit in plain
/// builds; under ASan, __asan_default_options above already caps it.
class AllocationCap {
 public:
  AllocationCap() {
#ifdef FGHP_FUZZ_ASAN
    capped_ = true;
#else
    if (getrlimit(RLIMIT_AS, &saved_) != 0) return;
    rlimit lowered = saved_;
    if (lowered.rlim_cur == RLIM_INFINITY || lowered.rlim_cur > kAddressSpaceCap)
      lowered.rlim_cur = kAddressSpaceCap;
    capped_ = setrlimit(RLIMIT_AS, &lowered) == 0;
    restore_ = capped_;
#endif
  }
  ~AllocationCap() {
    if (restore_) setrlimit(RLIMIT_AS, &saved_);
  }
  AllocationCap(const AllocationCap&) = delete;
  AllocationCap& operator=(const AllocationCap&) = delete;

  bool capped() const { return capped_; }

 private:
  rlimit saved_{};
  bool capped_ = false;
  bool restore_ = false;
};

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

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t b = 0;
  while (b < text.size()) {
    std::size_t e = text.find('\n', b);
    e = e == std::string::npos ? text.size() : e + 1;
    lines.push_back(text.substr(b, e - b));
    b = e;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& l : lines) text += l;
  return text;
}

/// Applies one random mutation.
void mutate(std::string& text, Rng& rng) {
  static const std::string kBytes = "0123456789 \t\n\r-+.eE%xn";
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng.next_below(n)); };
  switch (rng.next_below(5)) {
    case 0:  // byte flip, mostly to a byte the grammar cares about
      if (!text.empty()) {
        text[pick(text.size())] = rng.bernoulli(0.8) ? kBytes[pick(kBytes.size())]
                                                      : static_cast<char>(rng.next_below(256));
      }
      break;
    case 1:  // truncation
      text.resize(pick(text.size() + 1));
      break;
    case 2: {  // duplicated line
      auto lines = split_lines(text);
      if (!lines.empty()) {
        const std::size_t i = pick(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      }
      text = join(lines);
      break;
    }
    case 3: {  // deleted line
      auto lines = split_lines(text);
      if (!lines.empty())
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size())));
      text = join(lines);
      break;
    }
    default: {  // inserted digits
      std::string digits(1 + pick(12), '0');
      for (char& d : digits) d = static_cast<char>('0' + rng.next_below(10));
      text.insert(pick(text.size() + 1), digits);
      break;
    }
  }
}

std::string printable(const std::string& text) {
  std::string out;
  for (char c : text.substr(0, 400)) {
    if (c == '\n') out += "\\n";
    else if (c == '\r') out += "\\r";
    else if (static_cast<unsigned char>(c) < 32 || static_cast<unsigned char>(c) > 126) out += '?';
    else out += c;
  }
  return out;
}

TEST(MmioFuzz, EveryMutantParsesOrRaisesATypedError) {
  const AllocationCap cap;
  if (!cap.capped()) GTEST_SKIP() << "cannot cap the address space";
  const std::vector<std::string> seeds = seed_files();
  Rng rng(20011);
  int parsed = 0, rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string text = seeds[static_cast<std::size_t>(m) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) mutate(text, rng);
    std::istringstream in(text);
    try {
      const Csr a = read_matrix_market(in, "mutant.mtx");
      std::ostringstream out;
      write_matrix_market(out, a);
      std::istringstream again(out.str());
      ASSERT_EQ(read_matrix_market(again), a) << "mutant " << m << ": " << printable(text);
      ++parsed;
    } catch (const FormatError&) {
      ++rejected;
    } catch (const IoError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " raised an untyped error: " << e.what() << "\n"
                    << printable(text);
    }
  }
  // Both outcomes occur, so the mutants neither all break nor all miss the grammar.
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
  std::printf("%d mutants: %d parsed, %d rejected\n", kMutants, parsed, rejected);
}

TEST(MmioFuzz, SizeLineSeedsAreFormatErrorsOfTheSizeLine) {
  const AllocationCap cap;
  if (!cap.capped()) GTEST_SKIP() << "cannot cap the address space";
  for (const std::string& seed : size_line_seeds()) {
    std::istringstream in(seed);
    try {
      read_matrix_market(in);
      ADD_FAILURE() << "parsed: " << printable(seed);
    } catch (const FormatError& e) {
      EXPECT_EQ(e.context().line, 2) << e.what();
    }
  }
}

}  // namespace
}  // namespace fghp::sparse
