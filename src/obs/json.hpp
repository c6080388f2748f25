// Minimal JSON value model + recursive-descent parser: the project's one
// JSON reader. The exporters write strings with util/json_string's
// escaper.
//
// It reads back what the telemetry plane writes (snapshot lines,
// postmortems) for `crowdrank top`, the exporter tests and tools, and
// each line of a `crowdrank serve` jobs file (io/job_record.cpp); the
// project carries no external JSON dependency by design. It covers the
// full JSON grammar the exporters emit (objects, arrays, strings with
// the exporter's escape set, numbers, booleans, null), nests at most
// kMaxJsonDepth containers deep, and fails loudly with a byte offset on
// anything malformed. Object members keep insertion order (duplicates
// included) so round-trip tests can compare deterministically.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace crowdrank::obs {

/// Arrays and objects nest at most this deep; deeper input is an error,
/// not a stack overflow. The exporters write a handful of levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// One parsed JSON value. A tagged struct rather than a std::variant so
/// the recursive members need no indirection gymnastics.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String: the decoded text. Number: the literal as written, so an
  /// integer above 2^53 still converts exactly (std::from_chars).
  std::string string;
  std::vector<JsonValue> items;  ///< Array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  /// First member with `key`, or nullptr (objects only).
  const JsonValue* find(const std::string& key) const;

  /// Member lookups with defaults for optional schema fields.
  double number_at(const std::string& key, double fallback = 0.0) const;
  std::string string_at(const std::string& key,
                        const std::string& fallback = "") const;
};

/// Parses exactly one JSON document (trailing whitespace allowed, nothing
/// else). Throws crowdrank::Error naming the byte offset on malformed
/// input.
JsonValue parse_json(const std::string& text);

}  // namespace crowdrank::obs
