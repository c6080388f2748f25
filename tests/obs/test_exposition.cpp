// Serialization contracts of the telemetry plane: a golden Prometheus
// text exposition, the JSONL snapshot line round-tripped through the
// bundled JSON parser, and the postmortem document shape.
#include "obs/exposition.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace crowdrank::obs {
namespace {

/// The fixed state every test serializes: one counter, one gauge, one
/// histogram holding 0.5 and 3.0 (buckets le=1 and le=4), and two
/// flight-recorder events.
TelemetrySnapshot sample_snapshot() {
  TelemetrySnapshot snapshot;
  snapshot.seq = 7;
  snapshot.t_us = 1500.0;
  snapshot.counters.emplace_back("service.outcome.completed", 2);
  snapshot.gauges.emplace_back("service.queue_depth", 3.0);

  metrics::Histogram histogram;
  histogram.observe(0.5);
  histogram.observe(3.0);
  snapshot.histograms.emplace_back("service.job_ms", histogram.snapshot());

  snapshot.window.jobs_per_sec = 1.5;
  snapshot.window.window_ms = 250.0;
  snapshot.window.finished = 2;

  Event started;
  started.t_us = 100.0;
  started.job_id = 1;
  started.kind = EventKind::JobStarted;
  started.value = 0.25;
  snapshot.events.push_back(started);
  Event finished;
  finished.t_us = 900.0;
  finished.job_id = 1;
  finished.kind = EventKind::JobFinished;
  finished.code = 5;
  finished.value = 0.8;
  snapshot.events.push_back(finished);
  snapshot.events_recorded = 6;
  return snapshot;
}

TEST(ExpositionTest, PrometheusNameSanitization) {
  EXPECT_EQ(prometheus_name("service.stage_ms.rank_search"),
            "crowdrank_service_stage_ms_rank_search");
  EXPECT_EQ(prometheus_name("a-b c%"), "crowdrank_a_b_c_");
  EXPECT_EQ(prometheus_name("ok_name:v1"), "crowdrank_ok_name:v1");
}

TEST(ExpositionTest, PrometheusGolden) {
  std::ostringstream os;
  write_prometheus(os, sample_snapshot());
  const std::string expected =
      "# TYPE crowdrank_service_outcome_completed counter\n"
      "crowdrank_service_outcome_completed 2\n"
      "# TYPE crowdrank_service_queue_depth gauge\n"
      "crowdrank_service_queue_depth 3\n"
      "# TYPE crowdrank_jobs_per_sec gauge\n"
      "crowdrank_jobs_per_sec 1.5\n"
      "# TYPE crowdrank_service_job_ms histogram\n"
      "crowdrank_service_job_ms_bucket{le=\"1\"} 1\n"
      "crowdrank_service_job_ms_bucket{le=\"4\"} 2\n"
      "crowdrank_service_job_ms_bucket{le=\"+Inf\"} 2\n"
      "crowdrank_service_job_ms_sum 3.5\n"
      "crowdrank_service_job_ms_count 2\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ExpositionTest, SnapshotJsonRoundTripsThroughTheParser) {
  std::ostringstream os;
  write_snapshot_json(os, sample_snapshot());
  const std::string line = os.str();
  // Single line, no trailing newline — the exporter adds the '\n'.
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const JsonValue root = parse_json(line);
  ASSERT_TRUE(root.is_object());
  EXPECT_DOUBLE_EQ(root.number_at("v"), 1.0);
  EXPECT_DOUBLE_EQ(root.number_at("seq"), 7.0);
  EXPECT_DOUBLE_EQ(root.number_at("t_us"), 1500.0);

  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_at("service.outcome.completed"), 2.0);

  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->number_at("service.queue_depth"), 3.0);

  const JsonValue* histograms = root.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* job_ms = histograms->find("service.job_ms");
  ASSERT_NE(job_ms, nullptr);
  EXPECT_DOUBLE_EQ(job_ms->number_at("count"), 2.0);
  EXPECT_DOUBLE_EQ(job_ms->number_at("sum"), 3.5);
  EXPECT_DOUBLE_EQ(job_ms->number_at("min"), 0.5);
  EXPECT_DOUBLE_EQ(job_ms->number_at("max"), 3.0);
  // The shared quantile formula clamps to [min, max].
  EXPECT_GE(job_ms->number_at("p50"), 0.5);
  EXPECT_LE(job_ms->number_at("p50"), job_ms->number_at("p99"));
  EXPECT_LE(job_ms->number_at("p99"), 3.0);
  const JsonValue* buckets = job_ms->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->items[0].items[0].number, 1.0);
  EXPECT_DOUBLE_EQ(buckets->items[0].items[1].number, 1.0);
  EXPECT_DOUBLE_EQ(buckets->items[1].items[0].number, 4.0);
  EXPECT_DOUBLE_EQ(buckets->items[1].items[1].number, 1.0);

  const JsonValue* window = root.find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_DOUBLE_EQ(window->number_at("jobs_per_sec"), 1.5);
  EXPECT_DOUBLE_EQ(window->number_at("finished"), 2.0);

  EXPECT_DOUBLE_EQ(root.number_at("events_recorded"), 6.0);
  const JsonValue* events = root.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  EXPECT_EQ(events->items[0].string_at("kind"), "job_started");
  EXPECT_EQ(events->items[1].string_at("kind"), "job_finished");
  EXPECT_DOUBLE_EQ(events->items[1].number_at("code"), 5.0);
}

TEST(ExpositionTest, PostmortemDocumentShape) {
  Postmortem postmortem;
  postmortem.job_id = 9;
  postmortem.executor = 1;
  postmortem.outcome = "failed";
  postmortem.stage = "rank_search";
  postmortem.reason = "injected fault";
  postmortem.t_us = 42.0;
  postmortem.config_echo.emplace_back("seed", std::int64_t{4});
  postmortem.config_echo.emplace_back("search", std::string("saps"));
  postmortem.config_echo.emplace_back("check_invariants", false);
  postmortem.hardening.emplace_back("input_votes", 126);
  trace::SpanRecord root_span;
  root_span.name = "service.job";
  root_span.dur_us = 360.0;
  root_span.parent = trace::SpanRecord::kNoParent;
  postmortem.spans.push_back(root_span);
  trace::SpanRecord child;
  child.name = "pipeline.harden";
  child.parent = 0;
  postmortem.spans.push_back(child);
  postmortem.events.push_back(Event{1.0, 9, EventKind::JobFinished, 5, 0.3});

  std::ostringstream os;
  write_postmortem_json(os, postmortem);
  const JsonValue doc = parse_json(os.str());
  EXPECT_DOUBLE_EQ(doc.number_at("v"), 1.0);
  EXPECT_DOUBLE_EQ(doc.number_at("job"), 9.0);
  EXPECT_EQ(doc.string_at("outcome"), "failed");
  EXPECT_EQ(doc.string_at("stage"), "rank_search");
  const JsonValue* config = doc.find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_DOUBLE_EQ(config->number_at("seed"), 4.0);
  EXPECT_EQ(config->string_at("search"), "saps");
  const JsonValue* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items.size(), 2u);
  // The subtree root serializes parent -1; the child points at index 0.
  EXPECT_DOUBLE_EQ(spans->items[0].number_at("parent"), -1.0);
  EXPECT_DOUBLE_EQ(spans->items[1].number_at("parent"), 0.0);
  const JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  EXPECT_EQ(events->items[0].string_at("kind"), "job_finished");
}

TEST(ExpositionTest, EmptySnapshotStillSerializesValidJson) {
  TelemetrySnapshot snapshot;
  std::ostringstream os;
  write_snapshot_json(os, snapshot);
  const JsonValue root = parse_json(os.str());
  EXPECT_DOUBLE_EQ(root.number_at("v"), 1.0);
  ASSERT_NE(root.find("counters"), nullptr);
  EXPECT_TRUE(root.find("counters")->members.empty());
  ASSERT_NE(root.find("events"), nullptr);
  EXPECT_TRUE(root.find("events")->items.empty());
}

TEST(ExpositionTest, ParserCapsNestingDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  JsonValue deepest = parse_json(nested(kMaxJsonDepth));
  for (std::size_t level = 1; level < kMaxJsonDepth; ++level) {
    ASSERT_EQ(deepest.items.size(), 1u);
    const JsonValue inner = deepest.items[0];
    deepest = inner;
  }
  EXPECT_TRUE(deepest.is_array());
  EXPECT_TRUE(deepest.items.empty());
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1)), Error);
  EXPECT_THROW(parse_json("{\"a\": " + nested(kMaxJsonDepth) + "}"), Error);
  // One line an appender could leave behind: a throw, not a stack
  // overflow.
  EXPECT_THROW(parse_json(std::string(200000, '[')), Error);
}

TEST(ExpositionTest, ParserKeepsEachNumbersLiteral) {
  const JsonValue doc =
      parse_json("[18446744073709551615, 007, -1.5e3, 0]");
  ASSERT_EQ(doc.items.size(), 4u);
  EXPECT_EQ(doc.items[0].string, "18446744073709551615");
  EXPECT_EQ(doc.items[1].string, "007");
  EXPECT_DOUBLE_EQ(doc.items[1].number, 7.0);
  EXPECT_EQ(doc.items[2].string, "-1.5e3");
  EXPECT_DOUBLE_EQ(doc.items[2].number, -1500.0);
  EXPECT_EQ(doc.items[3].string, "0");
}

}  // namespace
}  // namespace crowdrank::obs
