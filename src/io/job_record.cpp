#include "io/job_record.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/checkpoint.hpp"
#include "util/error.hpp"
#include "util/json_string.hpp"

namespace crowdrank::io {

namespace {

/// Scalar value of the flat-JSON reader: strings stay quoted-decoded,
/// numbers/booleans keep their raw token for typed conversion later.
struct JsonScalar {
  bool is_string = false;
  std::string text;
};

void skip_ws(const std::string& line, std::size_t& pos) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
    ++pos;
  }
}

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  throw Error("jobs line " + std::to_string(line_number) + ": " + what);
}

std::string parse_json_string(const std::string& line, std::size_t& pos,
                              std::size_t line_number) {
  if (pos >= line.size() || line[pos] != '"') {
    fail(line_number, "expected '\"'");
  }
  ++pos;
  std::string out;
  while (pos < line.size() && line[pos] != '"') {
    char c = line[pos];
    if (static_cast<unsigned char>(c) < 0x20) {
      char text[64];
      std::snprintf(text, sizeof text,
                    "raw control byte 0x%02x at offset %zu in string",
                    static_cast<unsigned>(static_cast<unsigned char>(c)), pos);
      fail(line_number, text);
    }
    if (c == '\\') {
      ++pos;
      if (pos >= line.size()) {
        fail(line_number, "unterminated escape");
      }
      switch (line[pos]) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          // ASCII code points only (\u0000-\u007f): one byte each.
          unsigned code = 0;
          const char* digits = line.data() + pos + 1;
          const char* end = line.data() + std::min(pos + 5, line.size());
          const auto [ptr, ec] = std::from_chars(digits, end, code, 16);
          if (ec != std::errc() || ptr != digits + 4 || code > 0x7f) {
            fail(line_number,
                 "unsupported \\u escape (want \\u0000 to \\u007f)");
          }
          c = static_cast<char>(code);
          pos += 4;
          break;
        }
        default:
          fail(line_number, std::string("unsupported escape '\\") +
                                line[pos] + "'");
      }
    }
    out.push_back(c);
    ++pos;
  }
  if (pos >= line.size()) {
    fail(line_number, "unterminated string");
  }
  ++pos;  // closing quote
  return out;
}

/// Parses one flat JSON object line into key -> scalar. No nesting.
std::map<std::string, JsonScalar> parse_flat_object(
    const std::string& line, std::size_t line_number) {
  std::map<std::string, JsonScalar> fields;
  std::size_t pos = 0;
  skip_ws(line, pos);
  if (pos >= line.size() || line[pos] != '{') {
    fail(line_number, "expected '{'");
  }
  ++pos;
  skip_ws(line, pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
  } else {
    while (true) {
      skip_ws(line, pos);
      const std::string key = parse_json_string(line, pos, line_number);
      skip_ws(line, pos);
      if (pos >= line.size() || line[pos] != ':') {
        fail(line_number, "expected ':' after key \"" + key + "\"");
      }
      ++pos;
      skip_ws(line, pos);
      JsonScalar value;
      if (pos < line.size() && line[pos] == '"') {
        value.is_string = true;
        value.text = parse_json_string(line, pos, line_number);
      } else {
        const std::size_t start = pos;
        while (pos < line.size() && line[pos] != ',' && line[pos] != '}' &&
               std::isspace(static_cast<unsigned char>(line[pos])) == 0) {
          ++pos;
        }
        value.text = line.substr(start, pos - start);
        if (value.text.empty()) {
          fail(line_number, "missing value for key \"" + key + "\"");
        }
      }
      if (!fields.emplace(key, value).second) {
        fail(line_number, "duplicate key \"" + key + "\"");
      }
      skip_ws(line, pos);
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < line.size() && line[pos] == '}') {
        ++pos;
        break;
      }
      fail(line_number, "expected ',' or '}'");
    }
  }
  skip_ws(line, pos);
  if (pos != line.size()) {
    fail(line_number, "trailing content after '}'");
  }
  return fields;
}

std::uint64_t to_uint(const JsonScalar& value, const std::string& key,
                      std::size_t line_number) {
  if (value.is_string) {
    fail(line_number, "key \"" + key + "\" must be a number");
  }
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(
      value.text.data(), value.text.data() + value.text.size(), out);
  if (ec != std::errc() || ptr != value.text.data() + value.text.size()) {
    fail(line_number, "key \"" + key + "\": invalid integer '" +
                          value.text + "'");
  }
  return out;
}

}  // namespace

std::vector<JobRecord> parse_job_records(const std::string& text) {
  std::vector<JobRecord> records;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    std::size_t pos = 0;
    skip_ws(line, pos);
    if (pos == line.size()) {
      continue;  // blank line
    }
    const auto fields = parse_flat_object(line, line_number);
    JobRecord record;
    record.id = records.size() + 1;  // 1-based line ordinal by default
    for (const auto& [key, value] : fields) {
      if (key == "id") {
        record.id = to_uint(value, key, line_number);
      } else if (key == "votes") {
        if (!value.is_string) {
          fail(line_number, "key \"votes\" must be a string path");
        }
        record.votes_path = value.text;
      } else if (key == "object_count") {
        record.object_count = to_uint(value, key, line_number);
      } else if (key == "worker_count") {
        record.worker_count = to_uint(value, key, line_number);
      } else if (key == "seed") {
        record.seed = to_uint(value, key, line_number);
      } else if (key == "search") {
        if (!value.is_string) {
          fail(line_number, "key \"search\" must be a string");
        }
        record.search = value.text;
      } else if (key == "saps_iterations") {
        record.saps_iterations = to_uint(value, key, line_number);
      } else if (key == "deadline_ms") {
        record.deadline_ms = to_uint(value, key, line_number);
      } else if (key == "fail_before") {
        if (!value.is_string) {
          fail(line_number, "key \"fail_before\" must be a stage name");
        }
        if (!stage_from_name(value.text).has_value()) {
          fail(line_number,
               "key \"fail_before\": unknown stage '" + value.text + "'");
        }
        record.fail_before = value.text;
      } else if (key == "fail_reason") {
        if (!value.is_string) {
          fail(line_number, "key \"fail_reason\" must be a string");
        }
        record.fail_reason = value.text;
      } else {
        fail(line_number, "unknown key \"" + key + "\"");
      }
    }
    if (record.votes_path.empty()) {
      fail(line_number, "missing required key \"votes\"");
    }
    records.push_back(std::move(record));
  }
  return records;
}

std::string format_job_record(const JobRecord& record) {
  std::ostringstream os;
  os << "{\"id\": " << record.id << ", \"votes\": ";
  write_json_string(os, record.votes_path);
  if (record.object_count > 0) {
    os << ", \"object_count\": " << record.object_count;
  }
  if (record.worker_count > 0) {
    os << ", \"worker_count\": " << record.worker_count;
  }
  os << ", \"seed\": " << record.seed << ", \"search\": ";
  write_json_string(os, record.search);
  if (record.saps_iterations > 0) {
    os << ", \"saps_iterations\": " << record.saps_iterations;
  }
  if (record.deadline_ms > 0) {
    os << ", \"deadline_ms\": " << record.deadline_ms;
  }
  if (!record.fail_before.empty()) {
    os << ", \"fail_before\": ";
    write_json_string(os, record.fail_before);
    if (!record.fail_reason.empty()) {
      os << ", \"fail_reason\": ";
      write_json_string(os, record.fail_reason);
    }
  }
  os << "}";
  return os.str();
}

std::string format_job_result(const service::JobResult& result,
                              bool include_ranking) {
  std::ostringstream os;
  os << "{\"id\": " << result.id << ", \"outcome\": ";
  write_json_string(os, service::outcome_name(result.outcome));
  os << ", \"stage\": ";
  write_json_string(os, stage_name(result.stage));
  if (!result.reason.empty()) {
    os << ", \"reason\": ";
    write_json_string(os, result.reason);
  }
  const service::HardeningReport& h = result.hardening;
  os << ", \"input_votes\": " << h.input_votes
     << ", \"retained_votes\": " << h.retained_votes
     << ", \"dropped_out_of_range\": " << h.dropped_out_of_range
     << ", \"dropped_self\": " << h.dropped_self
     << ", \"dropped_duplicate\": " << h.dropped_duplicate
     << ", \"dropped_conflicting\": " << h.dropped_conflicting
     << ", \"dropped_disconnected\": " << h.dropped_disconnected
     << ", \"components\": " << h.component_count
     << ", \"excluded_objects\": " << h.excluded_objects.size();
  const bool ranked = result.outcome == service::JobOutcome::Completed ||
                      result.outcome == service::JobOutcome::Degraded;
  if (ranked) {
    os << ", \"log_probability\": " << result.log_probability;
    if (include_ranking) {
      os << ", \"ranking\": [";
      for (std::size_t p = 0; p < result.ranking.order.size(); ++p) {
        if (p > 0) os << ", ";
        os << result.ranking.order[p];
      }
      os << "]";
    }
  }
  os << ", \"queue_ms\": " << result.queue_ms
     << ", \"run_ms\": " << result.run_ms << "}";
  return os.str();
}

std::vector<JobRecord> load_job_records(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw Error("cannot open jobs file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_job_records(buffer.str());
}

}  // namespace crowdrank::io
