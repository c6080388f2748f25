// JSONL job-record parsing/formatting for `crowdrank serve`.
#include "io/job_record.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace crowdrank::io {
namespace {

TEST(JobRecord, ParsesFullAndMinimalLines) {
  const std::string text =
      "{\"id\": 9, \"votes\": \"a.csv\", \"object_count\": 50, "
      "\"worker_count\": 12, \"seed\": 7, \"search\": \"taps\", "
      "\"saps_iterations\": 400, \"deadline_ms\": 250}\n"
      "\n"
      "{\"votes\": \"b.csv\"}\n";
  const auto records = parse_job_records(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 9u);
  EXPECT_EQ(records[0].votes_path, "a.csv");
  EXPECT_EQ(records[0].object_count, 50u);
  EXPECT_EQ(records[0].worker_count, 12u);
  EXPECT_EQ(records[0].seed, 7u);
  EXPECT_EQ(records[0].search, "taps");
  EXPECT_EQ(records[0].saps_iterations, 400u);
  EXPECT_EQ(records[0].deadline_ms, 250u);
  // Minimal record: defaults plus a line-ordinal id.
  EXPECT_EQ(records[1].id, 2u);
  EXPECT_EQ(records[1].votes_path, "b.csv");
  EXPECT_EQ(records[1].search, "saps");
  EXPECT_EQ(records[1].seed, 1u);
}

TEST(JobRecord, MalformedLinesFailWithLineNumber) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      parse_job_records(text);
      FAIL() << "expected Error for: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("{\"votes\": \"a.csv\"}\nnot json\n", "line 2");
  expect_error("{\"seed\": 3}\n", "missing required key \"votes\"");
  expect_error("{\"votes\": \"a.csv\", \"bogus\": 1}\n", "unknown key");
  expect_error("{\"votes\": \"a.csv\", \"seed\": \"x\"}\n",
               "must be a number");
  expect_error("{\"votes\": 5}\n", "must be a string path");
  expect_error("{\"votes\": \"a.csv\", \"votes\": \"b.csv\"}\n",
               "duplicate key");
  expect_error("{\"votes\": \"a.csv\"} trailing\n", "trailing content");
}

TEST(JobRecord, AcceptedAndRejectedLines) {
  // One table for the jobs-file edge: each accepted text parses to the
  // listed ids, seeds and paths; each rejected one throws an Error naming
  // its line (and, for a raw control byte, its offset in that line).
  struct Accepted {
    std::string text;
    std::vector<std::uint64_t> ids;
    std::vector<std::uint64_t> seeds;
    std::vector<std::string> votes;
  };
  constexpr std::uint64_t kMax = 18446744073709551615u;
  const std::vector<Accepted> accepted = {
      {"{\"id\": 0, \"votes\": \"a.csv\", \"seed\": 0}\n", {0}, {0}, {"a.csv"}},
      {"{\"id\": 18446744073709551615, \"votes\": \"a.csv\", "
       "\"seed\": 18446744073709551615}\n",
       {kMax}, {kMax}, {"a.csv"}},
      {"{\"votes\": \"a.csv\", \"seed\": 007}", {1}, {7}, {"a.csv"}},
      {"{\"votes\": \"a.csv\", \"seed\": 5}\r\n{\"votes\": \"b.csv\"}\r\n",
       {1, 2}, {5, 1}, {"a.csv", "b.csv"}},
      {"\n  \n\t\n\r\n{\"votes\": \"b.csv\"}\n\n", {1}, {1}, {"b.csv"}},
      {"  {\"votes\":\"a\\u0041\\\\\\\".csv\",\"id\":3}  \n", {3}, {1},
       {"aA\\\".csv"}},
  };
  for (const Accepted& row : accepted) {
    SCOPED_TRACE(row.text);
    std::vector<JobRecord> records;
    ASSERT_NO_THROW(records = parse_job_records(row.text));
    ASSERT_EQ(records.size(), row.ids.size());
    for (std::size_t k = 0; k < records.size(); ++k) {
      EXPECT_EQ(records[k].id, row.ids[k]);
      EXPECT_EQ(records[k].seed, row.seeds[k]);
      EXPECT_EQ(records[k].votes_path, row.votes[k]);
    }
  }

  struct Rejected {
    std::string text;
    std::vector<std::string> needles;  ///< each must appear in the error
  };
  const std::vector<Rejected> rejected = {
      {"{\"votes\": \"a.csv\", \"id\": 18446744073709551616}\n",
       {"jobs line 1", "key \"id\": invalid integer"}},
      {"{\"votes\": \"a.csv\", \"seed\": 1e3}\n",
       {"jobs line 1", "key \"seed\": invalid integer '1e3'"}},
      {"{\"votes\": \"a.csv\", \"seed\": -1}\n",
       {"jobs line 1", "key \"seed\": invalid integer '-1'"}},
      {"{\"votes\": \"a.csv\", \"seed\": 1.5}\n",
       {"jobs line 1", "key \"seed\": invalid integer '1.5'"}},
      {"{\"votes\": \"a.csv\", \"seed\": true}\n",
       {"jobs line 1", "key \"seed\""}},
      {"{\"votes\": \"a.csv\", \"seed\": [1, 2]}\n", {"jobs line 1"}},
      {"{\"votes\": \"a.csv\", \"extra\": {\"a\": 1}}\n", {"jobs line 1"}},
      {"{\"votes\": {\"path\": \"a.csv\"}}\n", {"jobs line 1"}},
      {"{\"votes\": [\"a.csv\"]}\n", {"jobs line 1"}},
      {"{\"votes\": \"a.csv\", \"votes\": \"b.csv\"}\n",
       {"jobs line 1", "duplicate key \"votes\""}},
      {"{\"votes\": \"a.csv\", \"seed\": 1, \"seed\": 1}\n",
       {"jobs line 1", "duplicate key \"seed\""}},
      {"{\"votes\": \"a.csv\", \"bogus\": 1}\n",
       {"jobs line 1", "unknown key \"bogus\""}},
      {"{\"seed\": 3}\n", {"jobs line 1", "missing required key \"votes\""}},
      {"{}\n", {"jobs line 1", "missing required key \"votes\""}},
      {"{\"votes\": \"a.csv\"}\r\n{\"bogus\": 1}\r\n",
       {"jobs line 2", "unknown key \"bogus\""}},
      {"{\"votes\": \"a.csv\"}\n\n{\"votes\": \"b.csv\", \"seed\": x}\n",
       {"jobs line 3"}},
      {"[1]\n", {"jobs line 1"}},
      {"{\"votes\": \"a.csv\"} trailing\n", {"jobs line 1"}},
      {"{\"votes\": \"a.csv\"\n", {"jobs line 1"}},
      {"{\"votes\": \"a\x01.csv\"}\n",
       {"jobs line 1", "raw control byte 0x01", "offset 12"}},
      {"{\"votes\": \"a\tb\"}\n",
       {"jobs line 1", "raw control byte 0x09", "offset 12"}},
      {"{\"votes\": \"a.csv\"}\n{\"votes\": \"b\x1f\"}\n",
       {"jobs line 2", "raw control byte 0x1f", "offset 12"}},
  };
  for (const Rejected& row : rejected) {
    SCOPED_TRACE(row.text);
    try {
      parse_job_records(row.text);
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      for (const std::string& needle : row.needles) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what() << " lacks " << needle;
      }
    }
  }
}

TEST(JobRecord, FormatParseRoundTrip) {
  JobRecord record;
  record.id = 3;
  record.votes_path = "dir/votes \"x\".csv";  // needs escaping
  record.object_count = 20;
  record.seed = 11;
  record.search = "heldkarp";
  record.deadline_ms = 100;
  const auto parsed = parse_job_records(format_job_record(record) + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].id, record.id);
  EXPECT_EQ(parsed[0].votes_path, record.votes_path);
  EXPECT_EQ(parsed[0].object_count, record.object_count);
  EXPECT_EQ(parsed[0].seed, record.seed);
  EXPECT_EQ(parsed[0].search, record.search);
  EXPECT_EQ(parsed[0].deadline_ms, record.deadline_ms);
}

TEST(JobRecord, FaultInjectionFieldsParseValidateAndRoundTrip) {
  const auto records = parse_job_records(
      "{\"votes\": \"a.csv\", \"fail_before\": \"rank_search\", "
      "\"fail_reason\": \"drill\"}\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].fail_before, "rank_search");
  EXPECT_EQ(records[0].fail_reason, "drill");

  // Unknown stage names fail loudly with the line number.
  try {
    parse_job_records("{\"votes\": \"a.csv\", \"fail_before\": \"bogus\"}\n");
    FAIL() << "expected Error for unknown stage";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown stage"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }

  JobRecord record;
  record.votes_path = "a.csv";
  record.fail_before = "smoothing";
  record.fail_reason = "game day";
  const auto parsed = parse_job_records(format_job_record(record) + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].fail_before, record.fail_before);
  EXPECT_EQ(parsed[0].fail_reason, record.fail_reason);
}

TEST(JobRecord, ControlBytesRoundTripAsValidJson) {
  JobRecord record;
  record.votes_path = "a.csv";
  record.fail_before = "smoothing";
  record.fail_reason = "bad\x01" "byte\r\ttab";
  const std::string formatted = format_job_record(record);
  const auto no_control_byte = [](const std::string& line) {
    return std::none_of(line.begin(), line.end(), [](char c) {
      return static_cast<unsigned char>(c) < 0x20;
    });
  };
  EXPECT_TRUE(no_control_byte(formatted)) << formatted;
  const auto parsed = parse_job_records(formatted + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].fail_reason, record.fail_reason);

  // The escapes Python's json.dumps writes for control bytes.
  const auto dumped = parse_job_records(
      "{\"votes\": \"a.csv\", \"fail_before\": \"smoothing\", "
      "\"fail_reason\": \"bad\\u0001byte\\r\\t\\b\\f\"}\n");
  ASSERT_EQ(dumped.size(), 1u);
  EXPECT_EQ(dumped[0].fail_reason, "bad\x01" "byte\r\t\b\f");
  for (const char* bad : {"\\u00e9", "\\u01", "\\uzz00", "\\x"}) {
    EXPECT_THROW(parse_job_records("{\"votes\": \"a" + std::string(bad) +
                                   "\"}\n"),
                 Error)
        << bad;
  }
  // JSON forbids a raw byte below 0x20 inside a string, as json.loads
  // does: the reader rejects it and names its offset, and a jobs file
  // names the line too.
  const auto error_of = [](const auto& parse) {
    try {
      parse();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string raw_jobs = "{\"votes\": \"a\x01.csv\"}\n";
  EXPECT_NE(error_of([&] { parse_job_records(raw_jobs); })
                .find("jobs line 1: json offset 12: raw control byte 0x01"),
            std::string::npos)
      << error_of([&] { parse_job_records(raw_jobs); });
  const std::string raw_result = "{\"reason\": \"bad\x01\"}";
  EXPECT_NE(error_of([&] { obs::parse_json(raw_result); })
                .find("json offset 15: raw control byte 0x01"),
            std::string::npos)
      << error_of([&] { obs::parse_json(raw_result); });
  EXPECT_THROW(obs::parse_json("{\"a\x1f\": 1}"), Error);
  EXPECT_THROW(parse_job_records("{\"votes\": \"a\tb\"}\n"), Error);

  service::JobResult failed;
  failed.outcome = service::JobOutcome::Failed;
  failed.reason = record.fail_reason;
  const std::string line = format_job_result(failed);
  EXPECT_TRUE(no_control_byte(line)) << line;
  EXPECT_EQ(obs::parse_json(line).string_at("reason"), record.fail_reason);
}

TEST(JobRecord, EveryControlByteRoundTripsThroughEveryWriter) {
  // Every byte below 0x20, the quote and the backslash, written by the
  // trace, run-report and serve writers (one escaper,
  // util/json_string.hpp), must read back intact with obs::parse_json.
  std::string text;
  for (int c = 0; c < 0x20; ++c) text += static_cast<char>(c);
  text += "\"\\";
  const auto parse = [](const std::string& json) {
    EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
      return c != '\n' && static_cast<unsigned char>(c) < 0x20;
    })) << json;
    return obs::parse_json(json);
  };

  trace::TraceSink sink;
  {
    const trace::ScopedSink scoped(&sink);
    trace::Span span("escape");
    span.set_attr("text", text);
  }
  std::ostringstream chrome;
  sink.write_chrome_trace(chrome);
  const obs::JsonValue trace_doc = parse(chrome.str());
  const obs::JsonValue* events = trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  EXPECT_EQ(events->items[1].find("args")->string_at("text"), text);

  trace::RunReport report(text);
  report.note(text, text);
  report.add_run(text).note("text", text);
  std::ostringstream report_json;
  report.write(report_json);
  const obs::JsonValue report_doc = parse(report_json.str());
  EXPECT_EQ(report_doc.string_at("report"), text);
  EXPECT_EQ(report_doc.find("notes")->string_at(text), text);
  const obs::JsonValue& run = report_doc.find("runs")->items.at(0);
  EXPECT_EQ(run.string_at("label"), text);
  EXPECT_EQ(run.find("notes")->string_at("text"), text);

  JobRecord record;
  record.votes_path = text;
  record.fail_before = "smoothing";
  record.fail_reason = text;
  const std::string jobs_line = format_job_record(record);
  EXPECT_EQ(parse(jobs_line).string_at("fail_reason"), text);
  const auto parsed = parse_job_records(jobs_line + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].votes_path, text);
  EXPECT_EQ(parsed[0].fail_reason, text);

  service::JobResult failed;
  failed.outcome = service::JobOutcome::Failed;
  failed.reason = text;
  EXPECT_EQ(parse(format_job_result(failed)).string_at("reason"), text);
}

TEST(JobRecord, FormatsStructuredResults) {
  service::JobResult result;
  result.id = 4;
  result.outcome = service::JobOutcome::Degraded;
  result.stage = PipelineStage::Done;
  result.ranking.order = {2, 0, 1};
  result.ranking.excluded = {3};
  result.hardening.input_votes = 10;
  result.hardening.retained_votes = 8;
  result.hardening.dropped_disconnected = 2;
  result.hardening.excluded_objects = {3};
  result.log_probability = -1.5;
  const std::string line = format_job_result(result);
  EXPECT_NE(line.find("\"outcome\": \"degraded\""), std::string::npos);
  EXPECT_NE(line.find("\"stage\": \"done\""), std::string::npos);
  EXPECT_NE(line.find("\"ranking\": [2, 0, 1]"), std::string::npos);
  EXPECT_NE(line.find("\"excluded_objects\": 1"), std::string::npos);
  // Ranked outcomes can skip the (possibly long) ranking array.
  EXPECT_EQ(format_job_result(result, false).find("\"ranking\""),
            std::string::npos);

  service::JobResult failed;
  failed.id = 5;
  failed.outcome = service::JobOutcome::Failed;
  failed.stage = PipelineStage::Propagation;
  failed.reason = "injected fault";
  const std::string failed_line = format_job_result(failed);
  EXPECT_NE(failed_line.find("\"outcome\": \"failed\""), std::string::npos);
  EXPECT_NE(failed_line.find("\"stage\": \"propagation\""),
            std::string::npos);
  EXPECT_NE(failed_line.find("\"reason\": \"injected fault\""),
            std::string::npos);
  EXPECT_EQ(failed_line.find("\"ranking\""), std::string::npos);
}

}  // namespace
}  // namespace crowdrank::io
