// Step 2 against its reference path (smoothing_reference.hpp): the flat
// worker rows and the one smoothed graph read straight from step 1's
// truths must reproduce the direct-graph path bit for bit — the smoothed
// CSR, every SmoothingStats field, the 1-edge count and, after
// SampledError, the Rng's next draw.
#include "smoothing_reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/task_assignment.hpp"
#include "crowd/simulator.hpp"
#include "crowd/worker.hpp"
#include "metrics/ranking.hpp"
#include "util/error.hpp"

namespace crowdrank {
namespace {

std::vector<std::vector<WorkerId>> as_lists(const TaskWorkers& rows) {
  std::vector<std::vector<WorkerId>> lists;
  for (std::size_t t = 0; t < rows.task_count(); ++t) {
    const auto row = rows.of_task(t);
    lists.emplace_back(row.begin(), row.end());
  }
  return lists;
}

void expect_same_csr(const CsrAdjacency& a, const CsrAdjacency& b) {
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.neighbors, b.neighbors);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t e = 0; e < a.weights.size(); ++e) {
    if (std::bit_cast<std::uint64_t>(a.weights[e]) !=
        std::bit_cast<std::uint64_t>(b.weights[e])) {
      ADD_FAILURE() << "weight " << e << ": " << a.weights[e] << " vs "
                    << b.weights[e];
      return;
    }
  }
}

void expect_same_stats(const SmoothingStats& stats,
                       std::size_t one_edge_count,
                       const SmoothingReference& ref) {
  EXPECT_EQ(stats.one_edges_smoothed, ref.stats.one_edges_smoothed);
  EXPECT_EQ(stats.in_nodes_before, ref.stats.in_nodes_before);
  EXPECT_EQ(stats.out_nodes_before, ref.stats.out_nodes_before);
  EXPECT_EQ(stats.strongly_connected_after,
            ref.stats.strongly_connected_after);
  EXPECT_EQ(one_edge_count, ref.one_edge_count);
}

/// Runs both step 2s on the same input, each with its own Rng from `seed`.
void expect_same_step2(std::size_t n, const TruthDiscoveryResult& step1,
                       const TaskWorkers& rows, SmoothingMode mode,
                       std::uint64_t seed) {
  SmoothingConfig config;
  config.mode = mode;
  Rng rng(seed);
  Rng ref_rng(seed);
  SmoothingStats stats;
  const PreferenceGraph smoothed =
      smooth_preferences(n, step1, rows, config, &rng, &stats);
  const auto lists = as_lists(rows);
  const SmoothingReference ref =
      smooth_preferences_reference(n, step1, lists, config, &ref_rng);
  expect_same_csr(smoothed.out_csr(), ref.smoothed.out_csr());
  // The engine reports the smoothed count as the 1-edge count.
  expect_same_stats(stats, stats.one_edges_smoothed, ref);
  // Same draws consumed, same Box-Muller spare left behind.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal()),
            std::bit_cast<std::uint64_t>(ref_rng.normal()));
  EXPECT_EQ(rng(), ref_rng());
}

/// One run_experiment-shaped round: a random truth, a fair task graph of
/// `l` tasks, HITs over the default pool, one simulated collection.
struct Round {
  std::size_t pool = 0;
  HitAssignment assignment;
  VoteBatch votes;
};

Round make_round(std::size_t n, std::size_t l, std::uint64_t seed) {
  const ExperimentConfig shape;
  Rng rng(seed);
  const auto perm = rng.permutation(n);
  const Ranking truth(std::vector<VertexId>(perm.begin(), perm.end()));
  const TaskAssignment ta = generate_task_assignment(n, l, rng);
  const std::vector<Edge> tasks(ta.graph.edges().begin(),
                                ta.graph.edges().end());
  HitAssignment assignment(
      tasks, HitConfig{shape.comparisons_per_hit, shape.workers_per_task},
      shape.worker_pool_size, rng);
  const QualityLevel levels[] = {QualityLevel::High, QualityLevel::Medium,
                                 QualityLevel::Low};
  const auto workers = sample_worker_pool(
      shape.worker_pool_size,
      {QualityDistribution::Gaussian, levels[seed % 3]}, rng);
  const SimulatedCrowd crowd(truth, workers);
  VoteBatch votes = crowd.collect(assignment, rng);
  return {shape.worker_pool_size, std::move(assignment), std::move(votes)};
}

/// From a spanning path to all pairs, with r = 0.1 between.
std::vector<std::size_t> budgets(std::size_t n) {
  const std::size_t all = n * (n - 1) / 2;
  return {n - 1, std::max(n - 1, all / 10), (n - 1 + all) / 2, all};
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(SmoothingReference, MatchesOnExperimentRounds) {
  const std::size_t sizes[] = {4, 30, 100, 300};
  for (const std::size_t n : sizes) {
    for (const std::size_t l : budgets(n)) {
      for (const std::uint64_t seed : kSeeds) {
        SCOPED_TRACE(testing::Message()
                     << "n " << n << " l " << l << " seed " << seed);
        const Round round = make_round(n, l, seed);
        VoteIndex index;
        const TruthDiscoveryResult step1 =
            discover_truth(round.votes, n, round.pool, {}, &index);
        const TaskWorkers assigned = assigned_workers(index, round.assignment);
        const TaskWorkers voters = voting_workers(index);
        EXPECT_EQ(as_lists(assigned),
                  assigned_workers_reference(index, round.assignment));
        EXPECT_EQ(as_lists(voters), voting_workers_reference(index));
        for (const TaskWorkers* rows : {&assigned, &voters}) {
          for (const SmoothingMode mode : {SmoothingMode::ExpectedError,
                                           SmoothingMode::SampledError}) {
            expect_same_step2(n, step1, *rows, mode, seed + 100);
          }
        }
      }
    }
  }
}

TEST(SmoothingReference, MatchesOnVotersWithRepeatedAnswers) {
  const std::size_t sizes[] = {4, 30, 100};
  for (const std::size_t n : sizes) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed);
      Round round = make_round(n, budgets(n)[1], seed);
      // Every third vote answered again, every other repeat flipped, so
      // voters repeat within a task and some tasks lose unanimity.
      const std::size_t original = round.votes.size();
      for (std::size_t v = 0; v < original; v += 3) {
        Vote again = round.votes[v];
        if ((v / 3) % 2 == 1) again.prefers_i = !again.prefers_i;
        round.votes.push_back(again);
      }
      VoteIndex index;
      const TruthDiscoveryResult step1 =
          discover_truth(round.votes, n, round.pool, {}, &index);
      const TaskWorkers voters = voting_workers(index);
      ASSERT_LT(voters.workers.size(), index.task_votes.size());
      EXPECT_EQ(as_lists(voters), voting_workers_reference(index));
      for (const SmoothingMode mode :
           {SmoothingMode::ExpectedError, SmoothingMode::SampledError}) {
        expect_same_step2(n, step1, voters, mode, seed + 200);
      }
    }
  }
}

TEST(SmoothingReference, MatchesOnHandMadeTruths) {
  TruthDiscoveryResult step1;
  step1.worker_quality = {0.9, 0.6, 1.0, 0.3};
  // x = 1: forward 1-edge; x = 0: backward; x = 0.5: contested;
  // x = 2^-60: 1 - x rounds to 1, a backward 1-edge with i -> j present.
  step1.truths = {TaskTruth{{0, 1}, 1.0, 3}, TaskTruth{{1, 2}, 0.0, 2},
                  TaskTruth{{2, 3}, 0.5, 3}, TaskTruth{{3, 4}, 0x1p-60, 3},
                  TaskTruth{{0, 4}, 0.7, 2}};
  TaskWorkers rows;
  rows.workers = {0, 1, 2, 3, 1, 0, 1, 2, 2, 0, 3, 1, 3};
  rows.offsets = {0, 3, 5, 8, 11, 13};
  const PreferenceGraph direct = step1.to_preference_graph(5);
  ASSERT_TRUE(direct.has_edge(3, 4));
  ASSERT_EQ(direct.weight(4, 3), 1.0);
  ASSERT_EQ(direct.one_edges().size(), 3u);
  for (const SmoothingMode mode :
       {SmoothingMode::ExpectedError, SmoothingMode::SampledError}) {
    expect_same_step2(5, step1, rows, mode, 7);
  }
  SmoothingStats stats;
  const PreferenceGraph smoothed =
      smooth_preferences(5, step1, rows, {}, nullptr, &stats);
  EXPECT_EQ(stats.one_edges_smoothed, 3u);
  EXPECT_LT(smoothed.weight(4, 3), 1.0);
  EXPECT_GT(smoothed.weight(3, 4), 0x1p-60);
}

TEST(SmoothingReference, WorkerOutsideQualityVectorThrows) {
  TruthDiscoveryResult step1;
  step1.worker_quality = {0.9, 0.6};
  step1.truths = {TaskTruth{{0, 1}, 1.0, 2}, TaskTruth{{1, 2}, 0.4, 2}};
  TaskWorkers on_one_edge;
  on_one_edge.workers = {0, 2, 0, 1};
  on_one_edge.offsets = {0, 2, 4};
  EXPECT_THROW(smooth_preferences(3, step1, on_one_edge, {}, nullptr),
               Error);
  EXPECT_THROW(smooth_preferences_reference(3, step1, as_lists(on_one_edge),
                                            {}, nullptr),
               Error);
  // Qualities are read only for 1-edges, in both paths.
  TaskWorkers on_contested;
  on_contested.workers = {0, 1, 0, 2};
  on_contested.offsets = {0, 2, 4};
  expect_same_step2(3, step1, on_contested, SmoothingMode::ExpectedError, 1);
}

/// The message of the Error `run` throws, or "" when it throws none.
template <class Run>
std::string error_message(Run run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SmoothingReference, AssignedWorkersTakeTheFirstListing) {
  // Task (1, 2) is listed twice, the first time reversed; (0, 5) names an
  // object beyond every voted task.
  const std::vector<Edge> tasks{{2, 1}, {0, 3}, {0, 5}, {1, 2}, {2, 3}};
  Rng rng(2);
  const HitAssignment assignment(tasks, HitConfig{1, 2}, 6, rng);
  const auto workers_of = [&](std::size_t t) {
    const auto row = assignment.workers_for_task(t);
    return std::vector<WorkerId>(row.begin(), row.end());
  };
  ASSERT_NE(workers_of(0), workers_of(3));
  const VoteBatch votes{Vote{0, 2, 3, true}, Vote{1, 1, 2, false},
                        Vote{2, 0, 3, true}, Vote{3, 2, 1, true}};
  VoteIndex index;
  discover_truth(votes, 4, 6, {}, &index);
  ASSERT_EQ(index.tasks[1], (Edge{1, 2}));
  const TaskWorkers rows = assigned_workers(index, assignment);
  EXPECT_EQ(as_lists(rows), assigned_workers_reference(index, assignment));
  const auto row = rows.of_task(1);
  EXPECT_EQ(std::vector<WorkerId>(row.begin(), row.end()), workers_of(0));

  // A voted task the assignment never lists throws the reference's
  // message.
  VoteBatch outside = votes;
  outside.push_back(Vote{4, 1, 3, true});
  discover_truth(outside, 4, 6, {}, &index);
  for (const std::string& message :
       {error_message([&] { assigned_workers(index, assignment); }),
        error_message(
            [&] { assigned_workers_reference(index, assignment); })}) {
    EXPECT_NE(message.find("votes reference a task outside the assignment"),
              std::string::npos)
        << message;
  }
}

/// Copies the engine's smoothed graph at the step 3 checkpoint.
class CaptureSmoothed final : public StageControl {
 public:
  void checkpoint(const StageSnapshot& snapshot) override {
    if (snapshot.next == PipelineStage::Propagation) {
      smoothed = snapshot.smoothed->out_csr();
    }
  }
  CsrAdjacency smoothed;
};

TEST(SmoothingReference, EngineStepTwoMatches) {
  const std::size_t sizes[] = {4, 30, 100};
  for (const std::size_t n : sizes) {
    const Round round = make_round(n, budgets(n)[1], 5);
    for (const bool with_assignment : {true, false}) {
      for (const SmoothingMode mode :
           {SmoothingMode::ExpectedError, SmoothingMode::SampledError}) {
        SCOPED_TRACE(testing::Message() << "n " << n << " assignment "
                                        << with_assignment);
        CaptureSmoothed capture;
        InferenceConfig config;
        config.smoothing.mode = mode;
        config.control = &capture;
        const InferenceEngine engine(config);
        Rng rng(11);
        const InferenceResult r =
            with_assignment
                ? engine.infer(round.votes, n, round.pool, round.assignment,
                               rng)
                : engine.infer(round.votes, n, round.pool, rng);
        VoteIndex index;
        discover_truth(round.votes, n, round.pool, config.truth_discovery,
                       &index);
        const auto lists =
            with_assignment
                ? assigned_workers_reference(index, round.assignment)
                : voting_workers_reference(index);
        Rng ref_rng(11);
        const SmoothingReference ref = smooth_preferences_reference(
            n, r.step1, lists, config.smoothing, &ref_rng);
        expect_same_csr(capture.smoothed, ref.smoothed.out_csr());
        expect_same_stats(r.step2, r.one_edge_count, ref);
      }
    }
  }
}

}  // namespace
}  // namespace crowdrank
