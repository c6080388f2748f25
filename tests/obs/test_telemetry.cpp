// The telemetry plane end to end: files and schema on disk, the periodic
// exporter, bounded postmortem emission for every terminal outcome that
// warrants one, and the bitwise determinism pin with telemetry on/off.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "crowd/vote.hpp"
#include "obs/json.hpp"
#include "service/service.hpp"

namespace crowdrank::obs {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

/// Scratch dir per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("crowdrank_obs_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::vector<std::string> file_lines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TelemetryConfig manual_config(const TempDir& dir) {
  TelemetryConfig config;
  config.directory = (dir.path / "out").string();
  config.period = milliseconds(0);  // no exporter thread; flush by hand
  return config;
}

VoteBatch clean_batch(std::size_t n, std::size_t workers) {
  VoteBatch votes;
  for (WorkerId w = 0; w < workers; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, true});
      }
    }
  }
  return votes;
}

service::RankingJob clean_job(std::uint64_t seed = 7) {
  service::RankingJob job;
  job.votes = clean_batch(6, 3);
  job.object_count = 6;
  job.worker_count = 3;
  job.seed = seed;
  return job;
}

TEST(TelemetryTest, WritesSchemaValidSnapshotFiles) {
  const TempDir dir;
  Telemetry telemetry(manual_config(dir), /*executor_count=*/2);

  telemetry.on_job_accepted(1, 1);
  telemetry.on_job_started(0, 1, 0.2);
  telemetry.on_stage_checkpoint(0, 1, "hardening", 1, 0.4);
  telemetry.on_job_finished(0, 1, "completed", 0, 0.2, 1.1);
  telemetry.on_outcome("completed");
  telemetry.flush_snapshot();
  EXPECT_EQ(telemetry.snapshots_written(), 1u);

  const fs::path out = dir.path / "out";
  const auto lines = file_lines(out / "telemetry.jsonl");
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue snap = parse_json(lines[0]);
  EXPECT_DOUBLE_EQ(snap.number_at("v"), 1.0);
  EXPECT_DOUBLE_EQ(snap.number_at("seq"), 0.0);
  const JsonValue* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_at("service.outcome.completed"), 1.0);
  const JsonValue* histograms = snap.find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->find("service.job_ms"), nullptr);
  EXPECT_NE(histograms->find("service.stage_ms.hardening"), nullptr);
  const JsonValue* events = snap.find("events");
  ASSERT_NE(events, nullptr);
  // accepted + started + checkpoint + finished all made the tail.
  EXPECT_EQ(events->items.size(), 4u);

  // metrics.prom exists and mentions the counter under its sanitized name.
  std::ifstream prom(out / "metrics.prom");
  std::stringstream text;
  text << prom.rdbuf();
  EXPECT_NE(text.str().find("crowdrank_service_outcome_completed 1"),
            std::string::npos);

  // Sequence numbers are monotonic across flushes.
  telemetry.flush_snapshot();
  const auto more = file_lines(out / "telemetry.jsonl");
  ASSERT_EQ(more.size(), 2u);
  EXPECT_DOUBLE_EQ(parse_json(more[1]).number_at("seq"), 1.0);
}

TEST(TelemetryTest, ExporterThreadWritesPeriodicallyAndFlushesOnExit) {
  const TempDir dir;
  {
    TelemetryConfig config;
    config.directory = (dir.path / "out").string();
    config.period = milliseconds(5);
    Telemetry telemetry(std::move(config), 1);
    telemetry.on_outcome("completed");
    std::this_thread::sleep_for(milliseconds(60));
    EXPECT_GE(telemetry.snapshots_written(), 2u);
  }  // destructor joins the exporter and flushes one final snapshot
  const auto lines = file_lines(dir.path / "out" / "telemetry.jsonl");
  ASSERT_GE(lines.size(), 2u);
  double last_seq = -1.0;
  for (const std::string& line : lines) {
    const double seq = parse_json(line).number_at("seq");
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
}

TEST(TelemetryTest, PostmortemsAreWrittenAndBounded) {
  const TempDir dir;
  TelemetryConfig config = manual_config(dir);
  config.max_postmortems = 2;
  Telemetry telemetry(std::move(config), 1);

  for (std::uint64_t id = 1; id <= 3; ++id) {
    Postmortem postmortem;
    postmortem.job_id = id;
    postmortem.outcome = "failed";
    postmortem.stage = "rank_search";
    postmortem.reason = "test";
    telemetry.write_postmortem(postmortem);
  }
  EXPECT_EQ(telemetry.postmortems_written(), 2u);
  const fs::path pm_dir = dir.path / "out" / "postmortems";
  EXPECT_TRUE(fs::exists(pm_dir / "job_1_failed.json"));
  EXPECT_TRUE(fs::exists(pm_dir / "job_2_failed.json"));
  EXPECT_FALSE(fs::exists(pm_dir / "job_3_failed.json"));
  // Every written file is a valid JSON document.
  std::ifstream in(pm_dir / "job_1_failed.json");
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = parse_json(text.str());
  EXPECT_EQ(doc.string_at("outcome"), "failed");

  telemetry.flush_snapshot();
  const auto lines =
      file_lines(dir.path / "out" / "telemetry.jsonl");
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue snap = parse_json(lines[0]);
  const JsonValue* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_at("service.postmortem.written"), 2.0);
  EXPECT_DOUBLE_EQ(counters->number_at("service.postmortem.skipped"), 1.0);
}

TEST(TelemetryTest, ServiceEmitsOnePostmortemPerFailedTerminalOutcome) {
  const TempDir dir;
  Telemetry telemetry(manual_config(dir), /*executor_count=*/1);
  service::ServiceConfig config;
  config.worker_count = 1;
  config.telemetry = &telemetry;
  service::RankingService svc(config);

  // Failed: injected stage fault.
  service::RankingJob failing = clean_job(2);
  failing.fault.fail_before = PipelineStage::Propagation;
  failing.fault.fail_reason = "injected fault";
  // TimedOut: a stalled stage blowing a short deadline.
  service::RankingJob timing_out = clean_job(3);
  timing_out.fault.stall_before = PipelineStage::Smoothing;
  timing_out.fault.stall_duration = milliseconds(200);
  timing_out.deadline = milliseconds(40);
  // Degraded: a disconnected island batch.
  service::RankingJob degraded = clean_job(4);
  degraded.votes = clean_batch(5, 3);
  for (WorkerId w = 0; w < 3; ++w) {
    degraded.votes.push_back(Vote{w, 5, 6, true});
  }
  degraded.object_count = 7;
  // Completed: must NOT produce a postmortem.
  service::RankingJob healthy = clean_job(5);

  EXPECT_EQ(svc.wait(svc.submit(std::move(failing))).outcome,
            service::JobOutcome::Failed);
  EXPECT_EQ(svc.wait(svc.submit(std::move(timing_out))).outcome,
            service::JobOutcome::TimedOut);
  EXPECT_EQ(svc.wait(svc.submit(std::move(degraded))).outcome,
            service::JobOutcome::Degraded);
  EXPECT_EQ(svc.wait(svc.submit(std::move(healthy))).outcome,
            service::JobOutcome::Completed);

  EXPECT_EQ(telemetry.postmortems_written(), 3u);
  const fs::path pm_dir = dir.path / "out" / "postmortems";
  EXPECT_TRUE(fs::exists(pm_dir / "job_1_failed.json"));
  EXPECT_TRUE(fs::exists(pm_dir / "job_2_timed_out.json"));
  EXPECT_TRUE(fs::exists(pm_dir / "job_3_degraded.json"));

  // The failed job's document carries the full context: config echo,
  // hardening accounting, the job's span subtree rooted at parent -1,
  // and the executor's flight-recorder window naming the job.
  std::ifstream in(pm_dir / "job_1_failed.json");
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = parse_json(text.str());
  EXPECT_EQ(doc.string_at("stage"), "propagation");
  EXPECT_NE(doc.string_at("reason").find("injected fault"),
            std::string::npos);
  const JsonValue* config_echo = doc.find("config");
  ASSERT_NE(config_echo, nullptr);
  EXPECT_DOUBLE_EQ(config_echo->number_at("seed"), 2.0);
  // The submitted batch size, even though the executor moved the batch
  // out of the job before the postmortem was written.
  EXPECT_DOUBLE_EQ(config_echo->number_at("votes"),
                   static_cast<double>(clean_job(2).votes.size()));
  EXPECT_EQ(config_echo->string_at("search"), "saps");
  const JsonValue* hardening = doc.find("hardening");
  ASSERT_NE(hardening, nullptr);
  EXPECT_GT(hardening->number_at("input_votes"), 0.0);
  const JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  bool saw_job = false;
  for (const JsonValue& e : events->items) {
    saw_job = saw_job || e.number_at("job") == 1.0;
  }
  EXPECT_TRUE(saw_job);
}

TEST(TelemetryTest, RankingsAreBitwiseIdenticalWithTelemetryOnOrOff) {
  // The plane observes and never influences: the same job stream must
  // produce byte-identical rankings and log-probabilities with telemetry
  // attached or not, at one executor and at several.
  const auto run_stream = [](std::size_t workers, Telemetry* telemetry) {
    service::ServiceConfig config;
    config.worker_count = workers;
    config.telemetry = telemetry;
    service::RankingService svc(config);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      svc.submit(clean_job(seed));
    }
    std::ostringstream fingerprint;
    fingerprint.precision(17);
    for (const service::JobResult& r : svc.drain()) {
      fingerprint << r.id << ':' << static_cast<int>(r.outcome) << ':';
      for (const VertexId v : r.ranking.order) {
        fingerprint << v << ',';
      }
      fingerprint << r.log_probability << ';';
    }
    return fingerprint.str();
  };

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(workers);
    const std::string without = run_stream(workers, nullptr);
    const TempDir dir;
    Telemetry telemetry(manual_config(dir), workers);
    const std::string with = run_stream(workers, &telemetry);
    EXPECT_EQ(without, with);
  }
}

}  // namespace
}  // namespace crowdrank::obs
