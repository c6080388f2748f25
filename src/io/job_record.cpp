#include "io/job_record.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <set>
#include <sstream>

#include "core/checkpoint.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/json_string.hpp"

namespace crowdrank::io {

namespace {

[[noreturn]] void fail(std::size_t line_number, const std::string& what) {
  throw Error("jobs line " + std::to_string(line_number) + ": " + what);
}

std::uint64_t to_uint(const obs::JsonValue& value, const std::string& key,
                      std::size_t line_number) {
  if (!value.is_number()) {
    fail(line_number, "key \"" + key + "\" must be a number");
  }
  // The literal, not the double: ids and seeds span all 64 bits.
  const std::string& text = value.string;
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    fail(line_number,
         "key \"" + key + "\": invalid integer '" + text + "'");
  }
  return out;
}

const std::string& as_string(const obs::JsonValue& value,
                             const std::string& what,
                             std::size_t line_number) {
  if (!value.is_string()) {
    fail(line_number, what);
  }
  return value.string;
}

}  // namespace

std::vector<JobRecord> parse_job_records(const std::string& text) {
  std::vector<JobRecord> records;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (std::all_of(line.begin(), line.end(), [](char c) {
          return std::isspace(static_cast<unsigned char>(c)) != 0;
        })) {
      continue;  // blank line (a CRLF line's '\r' included)
    }
    obs::JsonValue object;
    try {
      object = obs::parse_json(line);
    } catch (const Error& e) {
      fail(line_number, e.what());
    }
    if (!object.is_object()) {
      fail(line_number, "expected a JSON object");
    }
    JobRecord record;
    record.id = records.size() + 1;  // 1-based record ordinal by default
    std::set<std::string> seen;
    for (const auto& [key, value] : object.members) {
      if (!seen.insert(key).second) {
        fail(line_number, "duplicate key \"" + key + "\"");
      }
      if (key == "id") {
        record.id = to_uint(value, key, line_number);
      } else if (key == "votes") {
        record.votes_path = as_string(
            value, "key \"votes\" must be a string path", line_number);
      } else if (key == "object_count") {
        record.object_count = to_uint(value, key, line_number);
      } else if (key == "worker_count") {
        record.worker_count = to_uint(value, key, line_number);
      } else if (key == "seed") {
        record.seed = to_uint(value, key, line_number);
      } else if (key == "search") {
        record.search = as_string(value, "key \"search\" must be a string",
                                  line_number);
      } else if (key == "saps_iterations") {
        record.saps_iterations = to_uint(value, key, line_number);
      } else if (key == "deadline_ms") {
        record.deadline_ms = to_uint(value, key, line_number);
      } else if (key == "fail_before") {
        record.fail_before = as_string(
            value, "key \"fail_before\" must be a stage name", line_number);
        if (!stage_from_name(record.fail_before).has_value()) {
          fail(line_number, "key \"fail_before\": unknown stage '" +
                                record.fail_before + "'");
        }
      } else if (key == "fail_reason") {
        record.fail_reason = as_string(
            value, "key \"fail_reason\" must be a string", line_number);
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
