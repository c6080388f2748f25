// Robustness suite for the batch ranking service: every fault-injection
// scenario must land in its documented structured outcome — never a crash,
// never an escaped exception, never a wedged executor pool — and results
// must be identical no matter how many executor threads run.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <variant>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "crowd/vote.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "service/api.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace crowdrank::service {
namespace {

using std::chrono::milliseconds;

/// All-pairs consistent batch over n objects: lower id always preferred,
/// so a healthy job completes with the identity ranking.
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

/// Two disconnected islands: {0..4} fully compared, {5,6} compared only
/// with each other. A correct service degrades to ranking the big island.
VoteBatch island_batch() {
  VoteBatch votes = clean_batch(5, 3);
  for (WorkerId w = 0; w < 3; ++w) {
    votes.push_back(Vote{w, 5, 6, true});
  }
  return votes;
}

/// Spins until the executor has dequeued everything submitted so far —
/// used by the backpressure tests so "the queue is empty, the blocker is
/// running" is an established fact, not a race.
void wait_until_queue_empty(RankingService& svc) {
  for (int spin = 0; spin < 500 && svc.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(svc.stats().queue_depth, 0u);
}

RankingJob clean_job(std::size_t n = 6) {
  RankingJob job;
  job.votes = clean_batch(n, 3);
  job.object_count = n;
  job.worker_count = 3;
  job.seed = 7;
  return job;
}

// ---------------------------------------------------------------------
// Table-driven fault matrix: one row per FaultPlan case, each asserting
// the documented outcome.
// ---------------------------------------------------------------------

struct FaultCase {
  const char* name;
  FaultPlan fault;
  milliseconds deadline{0};
  bool use_island_batch = false;
  JobOutcome expected_outcome;
  PipelineStage expected_stage;
  /// Substring the result's reason must contain ("" = don't care).
  const char* reason_contains = "";
};

std::vector<FaultCase> fault_matrix() {
  std::vector<FaultCase> cases;
  cases.push_back({"clean", FaultPlan{}, milliseconds(0), false,
                   JobOutcome::Completed, PipelineStage::Done, ""});
  {
    FaultCase c{"dropped_votes", FaultPlan{}, milliseconds(0), false,
                JobOutcome::Completed, PipelineStage::Done, ""};
    c.fault.drop_every_kth_vote = 3;
    cases.push_back(c);
  }
  {
    FaultCase c{"corrupted_votes", FaultPlan{}, milliseconds(0), false,
                JobOutcome::Completed, PipelineStage::Done, ""};
    c.fault.corrupt_every_kth_vote = 5;
    cases.push_back(c);
  }
  {
    FaultCase c{"disconnected_batch", FaultPlan{}, milliseconds(0), true,
                JobOutcome::Degraded, PipelineStage::Done, ""};
    cases.push_back(c);
  }
  {
    FaultCase c{"injected_stage_failure", FaultPlan{}, milliseconds(0),
                false, JobOutcome::Failed, PipelineStage::Propagation,
                "injected fault"};
    c.fault.fail_before = PipelineStage::Propagation;
    cases.push_back(c);
  }
  {
    FaultCase c{"stalled_stage_past_deadline", FaultPlan{},
                milliseconds(40), false, JobOutcome::TimedOut,
                PipelineStage::Smoothing, "deadline"};
    c.fault.stall_before = PipelineStage::Smoothing;
    c.fault.stall_duration = milliseconds(200);
    cases.push_back(c);
  }
  return cases;
}

TEST(ServiceFaultMatrixTest, EveryCaseYieldsItsDocumentedOutcome) {
  for (const FaultCase& c : fault_matrix()) {
    SCOPED_TRACE(c.name);
    RankingService svc;
    RankingJob job = clean_job();
    if (c.use_island_batch) {
      job.votes = island_batch();
      job.object_count = 7;
    }
    job.fault = c.fault;
    job.deadline = c.deadline;
    const JobResult result = svc.wait(svc.submit(std::move(job)));

    EXPECT_EQ(result.outcome, c.expected_outcome);
    EXPECT_EQ(result.stage, c.expected_stage);
    EXPECT_NE(result.reason.find(c.reason_contains), std::string::npos)
        << "reason was: " << result.reason;

    if (result.outcome == JobOutcome::Completed) {
      EXPECT_TRUE(result.ranking.complete());
      EXPECT_EQ(result.ranking.order.size(), 6u);
    }
    if (c.fault.drop_every_kth_vote > 0) {
      EXPECT_LT(result.hardening.input_votes, clean_job().votes.size());
    }
    if (c.fault.corrupt_every_kth_vote > 0) {
      EXPECT_GT(result.hardening.dropped_out_of_range, 0u);
    }
    if (result.outcome == JobOutcome::Degraded) {
      EXPECT_EQ(result.ranking.order.size(), 5u);
      EXPECT_EQ(result.ranking.excluded,
                (std::vector<VertexId>{5, 6}));
      EXPECT_GT(result.hardening.dropped_disconnected, 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Admission control and lifecycle.
// ---------------------------------------------------------------------

TEST(ServiceTest, InvalidConfigIsRejectedStructurally) {
  RankingService svc;
  RankingJob job = clean_job();
  job.inference.saps.iterations = 0;
  const JobResult result = svc.wait(svc.submit(std::move(job)));
  EXPECT_EQ(result.outcome, JobOutcome::Rejected);
  EXPECT_EQ(result.stage, PipelineStage::Validation);
  EXPECT_NE(result.reason.find("saps.iterations"), std::string::npos)
      << result.reason;
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(ServiceTest, WalkLengthOfOneIsRejectedAtSubmit) {
  // Step 3 needs indirect paths of length >= 2; a job asking for less is
  // refused before any step runs, not failed mid-pipeline.
  RankingService svc;
  RankingJob job = clean_job();
  job.inference.propagation.max_length = 1;
  const JobResult result = svc.wait(svc.submit(std::move(job)));
  EXPECT_EQ(result.outcome, JobOutcome::Rejected);
  EXPECT_EQ(result.stage, PipelineStage::Validation);
  EXPECT_NE(result.reason.find("propagation.max_length"), std::string::npos)
      << result.reason;

  api::Request request;
  for (VertexId i = 0; i + 1 < 30; ++i) {
    for (WorkerId w = 0; w < 3; ++w) {
      request.votes.push_back(Vote{w, i, i + 1, true});
    }
  }
  request.inference.propagation.max_length = 1;
  EXPECT_FALSE(api::validate(request).empty());
  const api::Response response = api::rank(request);
  EXPECT_EQ(response.outcome, JobOutcome::Rejected);
  EXPECT_EQ(response.stage, PipelineStage::Validation);
  request.inference.propagation.max_length = 2;
  EXPECT_TRUE(api::rank(request).ok());
}

TEST(ServiceTest, EmptyBatchFailsAtHardening) {
  RankingService svc;
  RankingJob job;
  job.object_count = 5;
  const JobResult result = svc.wait(svc.submit(std::move(job)));
  EXPECT_EQ(result.outcome, JobOutcome::Failed);
  EXPECT_EQ(result.stage, PipelineStage::Hardening);
  EXPECT_NE(result.reason.find("unusable"), std::string::npos);
}

TEST(ServiceTest, CancelWhileQueuedSettlesWithoutRunning) {
  ServiceConfig config;
  config.worker_count = 1;
  RankingService svc(config);

  // Occupy the single executor long enough for the victim to stay queued.
  RankingJob blocker = clean_job();
  blocker.fault.stall_before = PipelineStage::TruthDiscovery;
  blocker.fault.stall_duration = milliseconds(150);
  const std::uint64_t blocker_id = svc.submit(std::move(blocker));
  const std::uint64_t victim_id = svc.submit(clean_job());

  EXPECT_TRUE(svc.cancel(victim_id));
  const JobResult victim = svc.wait(victim_id);
  EXPECT_EQ(victim.outcome, JobOutcome::Cancelled);
  EXPECT_TRUE(victim.ranking.order.empty());
  EXPECT_EQ(svc.wait(blocker_id).outcome, JobOutcome::Completed);
  EXPECT_FALSE(svc.cancel(victim_id));  // already settled
}

TEST(ServiceTest, CancelRunningJobStopsAtNextCheckpoint) {
  ServiceConfig config;
  config.worker_count = 1;
  RankingService svc(config);
  RankingJob job = clean_job();
  job.fault.stall_before = PipelineStage::Smoothing;
  job.fault.stall_duration = milliseconds(150);
  const std::uint64_t id = svc.submit(std::move(job));
  // Give the executor time to enter the stall, then cancel mid-run.
  std::this_thread::sleep_for(milliseconds(30));
  svc.cancel(id);
  const JobResult result = svc.wait(id);
  EXPECT_EQ(result.outcome, JobOutcome::Cancelled);
  EXPECT_NE(result.stage, PipelineStage::Done);
}

TEST(ServiceTest, RejectNewPolicyRejectsWhenQueueIsFull) {
  ServiceConfig config;
  config.worker_count = 1;
  config.queue_capacity = 1;
  RankingService svc(config);

  RankingJob blocker = clean_job();
  blocker.fault.stall_before = PipelineStage::TruthDiscovery;
  blocker.fault.stall_duration = milliseconds(250);
  const std::uint64_t a = svc.submit(std::move(blocker));
  wait_until_queue_empty(svc);  // blocker is now running, queue empty
  const std::uint64_t b = svc.submit(clean_job());  // fills the queue
  const std::uint64_t c = svc.submit(clean_job());  // bounces

  const JobResult rejected = svc.wait(c);
  EXPECT_EQ(rejected.outcome, JobOutcome::Rejected);
  EXPECT_NE(rejected.reason.find("queue full"), std::string::npos);
  EXPECT_EQ(svc.wait(a).outcome, JobOutcome::Completed);
  EXPECT_EQ(svc.wait(b).outcome, JobOutcome::Completed);
  EXPECT_EQ(svc.stats().shed, 0u);
}

TEST(ServiceTest, ShedOldestPolicyEvictsTheHeadOfTheQueue) {
  ServiceConfig config;
  config.worker_count = 1;
  config.queue_capacity = 1;
  config.policy = QueuePolicy::ShedOldest;
  RankingService svc(config);

  RankingJob blocker = clean_job();
  blocker.fault.stall_before = PipelineStage::TruthDiscovery;
  blocker.fault.stall_duration = milliseconds(250);
  const std::uint64_t a = svc.submit(std::move(blocker));
  wait_until_queue_empty(svc);  // blocker is now running, queue empty
  const std::uint64_t b = svc.submit(clean_job());  // queued
  const std::uint64_t c = svc.submit(clean_job());  // sheds b

  const JobResult shed = svc.wait(b);
  EXPECT_EQ(shed.outcome, JobOutcome::Rejected);
  EXPECT_NE(shed.reason.find("shed"), std::string::npos);
  EXPECT_EQ(svc.wait(a).outcome, JobOutcome::Completed);
  EXPECT_EQ(svc.wait(c).outcome, JobOutcome::Completed);
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(ServiceTest, ServiceLevelFaultPlanTargetsOneSubmission) {
  ServiceConfig config;
  config.fault.fail_before = PipelineStage::RankSearch;
  config.fault.only_job = 1;  // second submission only
  RankingService svc(config);
  const std::uint64_t a = svc.submit(clean_job());
  const std::uint64_t b = svc.submit(clean_job());
  const std::uint64_t c = svc.submit(clean_job());
  EXPECT_EQ(svc.wait(a).outcome, JobOutcome::Completed);
  const JobResult failed = svc.wait(b);
  EXPECT_EQ(failed.outcome, JobOutcome::Failed);
  EXPECT_EQ(failed.stage, PipelineStage::RankSearch);
  EXPECT_EQ(svc.wait(c).outcome, JobOutcome::Completed);
}

TEST(ServiceTest, PoolIsNeverWedgedByAbortedJobs) {
  ServiceConfig config;
  config.worker_count = 2;
  RankingService svc(config);

  RankingJob doomed = clean_job();
  doomed.fault.stall_before = PipelineStage::Smoothing;
  doomed.fault.stall_duration = milliseconds(120);
  doomed.deadline = milliseconds(30);
  const std::uint64_t timed_out = svc.submit(std::move(doomed));

  RankingJob failing = clean_job();
  failing.fault.fail_before = PipelineStage::TruthDiscovery;
  const std::uint64_t failed = svc.submit(std::move(failing));

  EXPECT_EQ(svc.wait(timed_out).outcome, JobOutcome::TimedOut);
  EXPECT_EQ(svc.wait(failed).outcome, JobOutcome::Failed);

  // The same executors must still serve healthy work.
  const JobResult after = svc.wait(svc.submit(clean_job()));
  EXPECT_EQ(after.outcome, JobOutcome::Completed);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServiceTest, DestructorSettlesQueuedJobsAndJoins) {
  std::uint64_t queued_id = 0;
  JobResult queued_result;
  {
    ServiceConfig config;
    config.worker_count = 1;
    RankingService svc(config);
    RankingJob blocker = clean_job();
    blocker.fault.stall_before = PipelineStage::TruthDiscovery;
    blocker.fault.stall_duration = milliseconds(100);
    svc.submit(std::move(blocker));
    queued_id = svc.submit(clean_job());
    // Destroying the service must not hang: the queued job settles as
    // Cancelled and the running one stops at its next checkpoint.
  }
  EXPECT_GT(queued_id, 0u);
}

TEST(ServiceTest, DrainReturnsSubmissionOrder) {
  ServiceConfig config;
  config.worker_count = 4;
  RankingService svc(config);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RankingJob job = clean_job();
    job.seed = seed;
    ids.push_back(svc.submit(std::move(job)));
  }
  const std::vector<JobResult> results = svc.drain();
  ASSERT_EQ(results.size(), ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(results[k].id, ids[k]);
    EXPECT_EQ(results[k].outcome, JobOutcome::Completed);
  }
}

TEST(ServiceTest, EachResultIsClaimedOnce) {
  RankingService svc;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RankingJob job = clean_job();
    job.seed = seed;
    ids.push_back(svc.submit(std::move(job)));
  }
  EXPECT_EQ(svc.wait(ids[1]).id, ids[1]);
  EXPECT_THROW(svc.wait(ids[1]), Error);
  // drain claims the rest, in submission order, and nothing twice.
  const std::vector<JobResult> rest = svc.drain();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].id, ids[0]);
  EXPECT_EQ(rest[1].id, ids[2]);
  EXPECT_EQ(rest[2].id, ids[3]);
  EXPECT_TRUE(svc.drain().empty());
  EXPECT_THROW(svc.wait(ids[0]), Error);
  EXPECT_FALSE(svc.cancel(ids[0]));
  EXPECT_EQ(svc.stats().retained, 0u);
  EXPECT_EQ(svc.stats().completed, 4u);
}

TEST(ServiceTest, RetainedTicketsStayWithinTheJobsInFlight) {
  // A caller that waits on each job keeps the service's memory flat: the
  // tickets held never outnumber the jobs in flight.
  ServiceConfig config;
  config.worker_count = 2;
  RankingService svc(config);
  constexpr std::size_t kJobs = 10000;
  constexpr std::size_t kInFlight = 4;
  std::deque<std::uint64_t> in_flight;
  std::size_t submitted = 0;
  std::size_t most_retained = 0;
  while (submitted < kJobs || !in_flight.empty()) {
    while (submitted < kJobs && in_flight.size() < kInFlight) {
      RankingJob job = clean_job(3);
      job.seed = submitted++;
      job.inference.saps.iterations = 1;  // the service is under test
      in_flight.push_back(svc.submit(std::move(job)));
    }
    ASSERT_EQ(svc.wait(in_flight.front()).outcome, JobOutcome::Completed);
    in_flight.pop_front();
    const std::size_t retained = svc.stats().retained;
    ASSERT_LE(retained, in_flight.size());
    most_retained = std::max(most_retained, retained);
  }
  EXPECT_EQ(most_retained, kInFlight - 1);
  EXPECT_EQ(svc.stats().completed, kJobs);
  EXPECT_TRUE(svc.drain().empty());
}

// ---------------------------------------------------------------------
// Determinism: the same job stream produces bitwise-identical rankings
// at 1 executor and at N executors (content never depends on
// interleaving; only queue/run timing may differ).
// ---------------------------------------------------------------------

std::vector<RankingJob> determinism_stream() {
  std::vector<RankingJob> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RankingJob job = clean_job(7);
    job.seed = seed;
    jobs.push_back(job);
  }
  {
    RankingJob job = clean_job(6);
    job.fault.drop_every_kth_vote = 4;
    jobs.push_back(job);
  }
  {
    RankingJob job = clean_job(6);
    job.fault.corrupt_every_kth_vote = 6;
    jobs.push_back(job);
  }
  {
    RankingJob job;
    job.votes = island_batch();
    job.object_count = 7;
    job.seed = 5;
    jobs.push_back(job);
  }
  {
    RankingJob job = clean_job();
    job.fault.fail_before = PipelineStage::RankSearch;
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<JobResult> run_stream(std::size_t workers) {
  ServiceConfig config;
  config.worker_count = workers;
  RankingService svc(config);
  for (const RankingJob& job : determinism_stream()) {
    svc.submit(job);
  }
  return svc.drain();
}

TEST(ServiceDeterminismTest, IdenticalResultsAtOneAndManyExecutors) {
  const std::vector<JobResult> solo = run_stream(1);
  const std::vector<JobResult> fleet = run_stream(4);
  ASSERT_EQ(solo.size(), fleet.size());
  for (std::size_t k = 0; k < solo.size(); ++k) {
    SCOPED_TRACE("job " + std::to_string(k));
    EXPECT_EQ(solo[k].outcome, fleet[k].outcome);
    EXPECT_EQ(solo[k].stage, fleet[k].stage);
    EXPECT_EQ(solo[k].ranking.order, fleet[k].ranking.order);
    EXPECT_EQ(solo[k].ranking.excluded, fleet[k].ranking.excluded);
    EXPECT_EQ(solo[k].log_probability, fleet[k].log_probability);
    EXPECT_EQ(solo[k].hardening.retained_votes,
              fleet[k].hardening.retained_votes);
  }
}

// ---------------------------------------------------------------------
// Tracing: each executor installs the service's sink around its job, so
// the engine's spans nest under that job's service.job span.
// ---------------------------------------------------------------------

const std::vector<std::string> kStepNames = {
    "step1_truth_discovery", "step2_smoothing", "step3_propagation",
    "step4_find_best_ranking"};

/// Indices of the spans whose parent is `parent`, in open order.
std::vector<std::size_t> children_of(
    const std::vector<trace::SpanRecord>& spans, std::size_t parent) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == parent) out.push_back(i);
  }
  return out;
}

/// The integer attribute `key` of `span`, or -1 when it has none.
std::int64_t int_attr(const trace::SpanRecord& span, const char* key) {
  for (const auto& [name, value] : span.attrs) {
    if (name == key) return std::get<std::int64_t>(value);
  }
  return -1;
}

TEST(ServiceTraceTest, EveryJobSpanHoldsItsOwnEngineSpans) {
  trace::TraceSink sink;
  ServiceConfig config;
  config.worker_count = 2;
  config.trace = &sink;
  {
    RankingService svc(config);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      RankingJob job = clean_job(7);
      job.seed = seed;
      svc.submit(std::move(job));
    }
    for (const JobResult& r : svc.drain()) {
      ASSERT_EQ(r.outcome, JobOutcome::Completed) << r.reason;
    }
  }

  const auto spans = sink.spans();
  std::size_t jobs = 0;
  for (std::size_t j = 0; j < spans.size(); ++j) {
    if (spans[j].name != "service.job") continue;
    ++jobs;
    const std::int64_t id = int_attr(spans[j], "id");
    SCOPED_TRACE("job " + std::to_string(id));
    EXPECT_EQ(spans[j].parent, trace::SpanRecord::kNoParent);
    const std::vector<std::size_t> infer = children_of(spans, j);
    ASSERT_EQ(infer.size(), 1u);
    EXPECT_EQ(spans[infer[0]].name, "infer");
    std::vector<std::string> steps;
    for (const std::size_t s : children_of(spans, infer[0])) {
      steps.push_back(spans[s].name);
    }
    EXPECT_EQ(steps, kStepNames);
    // Every descendant, however deep, carries this job's id.
    for (std::size_t d = j + 1; d < spans.size(); ++d) {
      std::size_t p = spans[d].parent;
      while (p != trace::SpanRecord::kNoParent && p > j) p = spans[p].parent;
      if (p == j) {
        EXPECT_EQ(int_attr(spans[d], "job"), id) << spans[d].name;
      }
    }
  }
  EXPECT_EQ(jobs, 6u);
}

TEST(ServiceTraceTest, PostmortemOfAJobFailedMidPipelineHoldsItsSpanTree) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("crowdrank_service_trace_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  obs::TelemetryConfig telemetry_config;
  telemetry_config.directory = dir.string();
  telemetry_config.period = milliseconds(0);
  trace::TraceSink sink;
  {
    obs::Telemetry telemetry(telemetry_config, /*executor_count=*/1);
    ServiceConfig config;
    config.telemetry = &telemetry;
    config.trace = &sink;
    RankingService svc(config);
    // A healthy job first, so the failed job's subtree sits mid-list and
    // must be re-indexed.
    ASSERT_EQ(svc.wait(svc.submit(clean_job())).outcome,
              JobOutcome::Completed);
    RankingJob failing = clean_job();
    failing.fault.fail_before = PipelineStage::RankSearch;
    ASSERT_EQ(svc.wait(svc.submit(std::move(failing))).outcome,
              JobOutcome::Failed);
  }

  std::ifstream in(dir / "postmortems" / "job_2_failed.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  fs::remove_all(dir);
  const obs::JsonValue doc = obs::parse_json(text.str());
  const obs::JsonValue* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  std::vector<std::string> names;
  std::vector<double> parents;
  for (const obs::JsonValue& span : spans->items) {
    names.push_back(span.string_at("name"));
    parents.push_back(span.number_at("parent"));
    const obs::JsonValue* attrs = span.find("attrs");
    ASSERT_NE(attrs, nullptr);
    if (names.size() > 1) {
      EXPECT_EQ(attrs->number_at("job"), 2.0) << names.back();
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "service.job", "infer", "step1_truth_discovery",
                       "step2_smoothing", "step3_propagation"}));
  EXPECT_EQ(parents, (std::vector<double>{-1, 0, 1, 1, 1}));
}

// Hardening compacts worker ids to 0..k-1, so step 1 sizes its per-worker
// arrays by the k workers the batch names, not by a larger caller count.
// A worker no vote names would keep q = 1 and enter neither Eq. 4 nor the
// max-normalization, so the answer is the same bits either way.
TEST(ServiceApiTest, HardenedWorkerCountIsTheCompactedCount) {
  api::Request request;
  for (VertexId i = 0; i < 6; ++i) {
    for (VertexId j = i + 1; j < 6; ++j) {
      request.votes.push_back(Vote{7, i, j, true});
      request.votes.push_back(Vote{5'000'000, i, j, (i + j) % 4 != 1});
    }
  }
  request.worker_count = 5'000'001;
  const api::Response oversized = api::rank(request);
  request.worker_count = 0;
  const api::Response derived = api::rank(request);
  ASSERT_TRUE(oversized.ok()) << oversized.reason;
  ASSERT_TRUE(derived.ok()) << derived.reason;
  ASSERT_TRUE(oversized.inference.has_value());
  EXPECT_EQ(oversized.inference->step1.worker_quality.size(), 2u);
  EXPECT_EQ(oversized.ranking.order, derived.ranking.order);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(oversized.log_probability),
            std::bit_cast<std::uint64_t>(derived.log_probability));
}

}  // namespace
}  // namespace crowdrank::service
