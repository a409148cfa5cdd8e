// Environment-variable driven options for the benchmark harnesses
// (FGHP_SEEDS, FGHP_FULL, FGHP_MATRICES, ...), plus tiny argv helpers for the
// example CLIs. Centralized so every bench documents and parses knobs the
// same way.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fghp {

/// Reads an environment variable; nullopt if unset or empty.
std::optional<std::string> env_str(const char* name);

/// Integer env var with default; throws std::invalid_argument on garbage.
long env_long(const char* name, long fallback);

/// Boolean env var: unset/"0"/"false"/"no" => false, anything else => true.
bool env_flag(const char* name, bool fallback = false);

/// Comma-separated list env var (trimmed, empty items dropped).
std::vector<std::string> env_list(const char* name);

/// Minimal positional/flag argv scanner for the example programs:
/// flags are "--name value" or "--name=value"; positionals kept in order.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  /// Value of --name, or nullopt.
  std::optional<std::string> flag(const std::string& name) const;

  /// Value of --name as long, or fallback. A value that is not a whole
  /// integer, or does not fit a long, throws std::invalid_argument naming
  /// the flag (the CLIs' usage exit code).
  long flag_long(const std::string& name, long fallback) const;

  /// Presence of a bare switch --name (no value).
  bool has_switch(const std::string& name) const;

  /// Throws std::invalid_argument naming the first flag or switch whose name
  /// is not in `known` (the CLIs' usage exit code), so a misspelt option is
  /// an error rather than silently ignored.
  void reject_unknown(const std::vector<std::string_view>& known) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> switches_;
  std::vector<std::string> positional_;
};

}  // namespace fghp
