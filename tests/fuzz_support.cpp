#include "fuzz_support.hpp"

#include <cstddef>
#include <vector>

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

namespace fghp::fuzz {

namespace {

constexpr rlim_t kAddressSpaceCap = rlim_t{256} << 20;

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

}  // namespace

AllocationCap::AllocationCap() {
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

AllocationCap::~AllocationCap() {
  if (restore_) setrlimit(RLIMIT_AS, &saved_);
}

void mutate(std::string& text, Rng& rng, std::string_view alphabet) {
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng.next_below(n)); };
  switch (rng.next_below(5)) {
    case 0:  // byte flip, mostly to a byte the grammar cares about
      if (!text.empty()) {
        text[pick(text.size())] = rng.bernoulli(0.8) ? alphabet[pick(alphabet.size())]
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

}  // namespace fghp::fuzz
