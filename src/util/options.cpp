#include "util/options.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace fghp {

std::optional<std::string> env_str(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

long env_long(const char* name, long fallback) {
  const auto s = env_str(name);
  if (!s) return fallback;
  char* end = nullptr;
  const long v = std::strtol(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0') {
    throw std::invalid_argument(std::string(name) + " is not an integer: " + *s);
  }
  return v;
}

bool env_flag(const char* name, bool fallback) {
  const auto s = env_str(name);
  if (!s) return fallback;
  return !(*s == "0" || *s == "false" || *s == "no" || *s == "off");
}

std::vector<std::string> env_list(const char* name) {
  std::vector<std::string> out;
  const auto s = env_str(name);
  if (!s) return out;
  std::size_t pos = 0;
  while (pos <= s->size()) {
    std::size_t comma = s->find(',', pos);
    if (comma == std::string::npos) comma = s->size();
    std::string item = s->substr(pos, comma - pos);
    // trim spaces
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (!item.empty()) out.push_back(std::move(item));
    pos = comma + 1;
  }
  return out;
}

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      const std::size_t eq = body.find('=');
      if (eq != std::string::npos) {
        flags_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_.emplace_back(body, argv[++i]);
      } else {
        switches_.push_back(body);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::optional<std::string> ArgParser::flag(const std::string& name) const {
  for (const auto& [k, v] : flags_)
    if (k == name) return v;
  return std::nullopt;
}

long ArgParser::flag_long(const std::string& name, long fallback) const {
  const auto v = flag(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const long x = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + " is not an integer: " + *v);
  }
  if (errno == ERANGE) throw std::invalid_argument("--" + name + " is out of range: " + *v);
  return x;
}

void ArgParser::reject_unknown(const std::vector<std::string_view>& known) const {
  auto check = [&](const std::string& name) {
    for (std::string_view k : known)
      if (k == name) return;
    throw std::invalid_argument("unknown option --" + name);
  };
  for (const auto& [k, v] : flags_) check(k);
  for (const auto& s : switches_) check(s);
}

bool ArgParser::has_switch(const std::string& name) const {
  for (const auto& s : switches_)
    if (s == name) return true;
  for (const auto& [k, v] : flags_)
    if (k == name) return true;
  return false;
}

}  // namespace fghp
