// Shared pieces of the seeded mutation drivers (test_mmio_fuzz,
// test_decomp_fuzz, test_json_fuzz): an allocation cap for the scope of a test, the text
// mutator, and a printable excerpt of a mutant for failure messages.
//
// A mutated count can ask for a huge allocation, so a driver caps
// allocation first: RLIMIT_AS in the plain build, and ASan's
// max_allocation_size_mb in the sanitizer build (ASan reserves its shadow
// memory up front, so an address-space cap would stop it). fuzz_support.cpp
// sets that ASan option and makes a UBSan report fail the run; the drivers
// also link tests/alloc_counter.cpp, whose operator new sits on malloc, so
// under ASan a refused malloc surfaces as std::bad_alloc instead of an abort.
#pragma once

#include <sys/resource.h>

#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace fghp::fuzz {

/// Caps allocation for the scope: the soft address-space limit in plain
/// builds; under ASan, the default options in fuzz_support.cpp already cap
/// it.
class AllocationCap {
 public:
  AllocationCap();
  ~AllocationCap();
  AllocationCap(const AllocationCap&) = delete;
  AllocationCap& operator=(const AllocationCap&) = delete;

  bool capped() const { return capped_; }

 private:
  rlimit saved_{};
  bool capped_ = false;
  bool restore_ = false;
};

/// The bytes the number-and-line grammars (Matrix Market, decomposition
/// files) care about.
inline constexpr std::string_view kTextBytes = "0123456789 \t\n\r-+.eE%xn";

/// Applies one random mutation: a byte flip (mostly to a byte of
/// `alphabet`, the bytes the grammar cares about), a truncation, a
/// duplicated or deleted line, or inserted digits.
void mutate(std::string& text, Rng& rng, std::string_view alphabet = kTextBytes);

/// The first 400 bytes of `text` with line breaks escaped and other
/// non-printable bytes replaced by '?'.
std::string printable(const std::string& text);

}  // namespace fghp::fuzz
