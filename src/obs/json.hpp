// Minimal JSON value model + recursive-descent parser. The exporters
// write strings with util/json_string's escaper.
//
// The telemetry plane writes nested JSON (snapshot lines, postmortems)
// that `crowdrank top`, the exporter tests, and tools read back; the
// flat-object reader in io/job_record.cpp cannot represent it, and the
// project carries no external JSON dependency by design. This parser
// covers the full JSON grammar the exporters emit (objects, arrays,
// strings with the exporter's escape set, numbers, booleans, null) and
// fails loudly with a byte offset on anything malformed. Object members
// keep insertion order so round-trip tests can compare deterministically.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace crowdrank::obs {

/// One parsed JSON value. A tagged struct rather than a std::variant so
/// the recursive members need no indirection gymnastics.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
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
