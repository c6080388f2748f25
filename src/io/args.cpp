#include "io/args.hpp"

#include <charconv>

#include "util/error.hpp"

namespace crowdrank::io {

Args::Args(int argc, const char* const* argv, int start,
           const std::set<std::string>& known_options,
           const std::set<std::string>& known_flags) {
  for (int i = start; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    if (known_flags.contains(key)) {
      flags_.insert(key);
      continue;
    }
    if (!known_options.contains(key)) {
      throw Error("unknown option --" + key);
    }
    if (i + 1 >= argc) {
      throw Error("option --" + key + " needs a value");
    }
    values_[key] = argv[++i];
  }
}

bool Args::has(const std::string& key) const { return values_.contains(key); }

bool Args::flag(const std::string& key) const { return flags_.contains(key); }

const std::string& Args::value(const std::string& key) const {
  const auto it = values_.find(key);
  CR_EXPECTS(it != values_.end(), "missing option --" + key);
  return it->second;
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  return has(key) ? value(key) : fallback;
}

std::size_t Args::get_size(const std::string& key,
                           std::size_t fallback) const {
  if (!has(key)) return fallback;
  const std::string& text = value(key);
  std::size_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw Error("option --" + key + ": invalid integer '" + text + "'");
  }
  return out;
}

double Args::get_double(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const std::string& text = value(key);
  try {
    std::size_t consumed = 0;
    const double out = std::stod(text, &consumed);
    if (consumed != text.size()) {
      throw Error("");
    }
    return out;
  } catch (...) {
    throw Error("option --" + key + ": invalid number '" + text + "'");
  }
}

std::uint64_t Args::get_seed(const std::string& key,
                             std::uint64_t fallback) const {
  return get_size(key, static_cast<std::size_t>(fallback));
}

std::string Args::require_string(const std::string& key) const {
  return value(key);
}

std::size_t Args::require_size(const std::string& key) const {
  CR_EXPECTS(has(key), "missing required option --" + key);
  return get_size(key, 0);
}

}  // namespace crowdrank::io
