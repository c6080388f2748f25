// Tiny declarative command-line argument parser for the crowdrank CLI.
//
// Supports `--key value` options and `--flag` booleans, typed accessors
// with defaults, and strict unknown-option rejection so typos fail loudly
// instead of silently running a default experiment.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace crowdrank::io {

/// Parsed command line: option map + positional arguments.
class Args {
 public:
  /// Parses argv[start..). `known_options` lists every valid --key that
  /// takes a value; `known_flags` every valid boolean --flag. Throws
  /// crowdrank::Error on unknown options or a missing value.
  Args(int argc, const char* const* argv, int start,
       const std::set<std::string>& known_options,
       const std::set<std::string>& known_flags);

  bool has(const std::string& key) const;
  bool flag(const std::string& key) const;

  /// Raw value; throws when missing.
  const std::string& value(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::uint64_t get_seed(const std::string& key,
                         std::uint64_t fallback) const;

  /// Value that must be present; throws naming the option otherwise.
  std::string require_string(const std::string& key) const;
  std::size_t require_size(const std::string& key) const;

  const std::vector<std::string>& positionals() const {
    return positionals_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace crowdrank::io
