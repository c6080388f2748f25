// Property sweeps (TEST_P) over the whole pipeline: invariants that must
// hold for every (n, ratio, quality, seed) combination.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/preference_graph.hpp"
#include "metrics/kendall.hpp"

namespace crowdrank {
namespace {

using SweepParam =
    std::tuple<std::size_t /*n*/, double /*ratio*/, QualityDistribution,
               QualityLevel>;

/// Records the stage each engine checkpoint announces.
struct StageRecorder final : StageControl {
  std::vector<PipelineStage> seen;
  void checkpoint(const StageSnapshot& snapshot) override {
    seen.push_back(snapshot.next);
  }
};

class PipelineInvariants : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PipelineInvariants, HoldAcrossTheGrid) {
  const auto [n, ratio, dist, level] = GetParam();
  ExperimentConfig config;
  config.object_count = n;
  config.selection_ratio = ratio;
  config.worker_pool_size = 20;
  config.workers_per_task = 3;
  config.worker_quality = {dist, level};
  config.inference.saps.iterations = 600;  // speed over polish here
  config.seed = 1000 + n * 7 + static_cast<std::size_t>(ratio * 100);
  StageRecorder stages;
  config.inference.control = &stages;
  const ExperimentResult r = run_experiment(config);

  // 1. Output is a full ranking over exactly the n objects.
  EXPECT_EQ(r.inference.ranking.size(), n);

  // 2. Budget-consciousness: l tasks, each with w workers, within budget.
  EXPECT_LE(r.unique_tasks,
            n * (n - 1) / 2);
  EXPECT_GE(r.unique_tasks, n - 1);

  // 3. Task fairness: near-regular degrees.
  EXPECT_LE(r.assignment_stats.max_degree - r.assignment_stats.min_degree,
            1u);

  // 4. Step-1 sanity: one truth per unique task, all x in [0,1], qualities
  //    in [0,1].
  EXPECT_EQ(r.inference.step1.truths.size(), r.unique_tasks);
  for (const auto& t : r.inference.step1.truths) {
    EXPECT_GE(t.x, 0.0);
    EXPECT_LE(t.x, 1.0);
    EXPECT_GE(t.vote_count, 1u);
  }
  for (const double q : r.inference.step1.worker_quality) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }

  // 5. Step-2 guarantee: smoothed graph strongly connected.
  EXPECT_TRUE(r.inference.step2.strongly_connected_after);

  // 6. Step-3 guarantee (Thm 5.1): complete closure.
  EXPECT_TRUE(r.inference.step3.complete);

  // 7. Accuracy is a valid Kendall-based score and beats anti-correlation.
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);

  // 8. The engine checkpoints before each of the four steps and once when
  //    done, in order.
  EXPECT_EQ(stages.seen,
            (std::vector<PipelineStage>{
                PipelineStage::TruthDiscovery, PipelineStage::Smoothing,
                PipelineStage::Propagation, PipelineStage::RankSearch,
                PipelineStage::Done}));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineInvariants,
    ::testing::Combine(
        ::testing::Values<std::size_t>(10, 30, 60),
        ::testing::Values(0.1, 0.5, 1.0),
        ::testing::Values(QualityDistribution::Gaussian,
                          QualityDistribution::Uniform),
        ::testing::Values(QualityLevel::High, QualityLevel::Medium,
                          QualityLevel::Low)));

class AccuracyFloor : public ::testing::TestWithParam<
                          std::tuple<std::size_t, double>> {};

TEST_P(AccuracyFloor, HighQualityWorkersClearTheBar) {
  const auto [n, ratio] = GetParam();
  double acc = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    ExperimentConfig config;
    config.object_count = n;
    config.selection_ratio = ratio;
    config.worker_pool_size = 20;
    config.workers_per_task = 3;
    config.worker_quality = {QualityDistribution::Gaussian,
                             QualityLevel::High};
    config.seed = 31 * n + t;
    acc += run_experiment(config).accuracy;
  }
  acc /= trials;
  // With near-perfect workers, half the pairwise budget must land far
  // above chance at every scale in the sweep.
  EXPECT_GT(acc, 0.8) << "n=" << n << " ratio=" << ratio;
}

INSTANTIATE_TEST_SUITE_P(Grid, AccuracyFloor,
                         ::testing::Combine(::testing::Values<std::size_t>(
                                                30, 60, 100),
                                            ::testing::Values(0.3, 0.5,
                                                              1.0)));

class SeedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedDeterminism, SameSeedSameOutcome) {
  ExperimentConfig config;
  config.object_count = 25;
  config.selection_ratio = 0.4;
  config.worker_pool_size = 12;
  config.workers_per_task = 3;
  config.seed = GetParam();
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  EXPECT_EQ(a.inference.ranking, b.inference.ranking);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.inference.one_edge_count, b.inference.one_edge_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedDeterminism,
                         ::testing::Values(1u, 17u, 123456789u));

}  // namespace
}  // namespace crowdrank
