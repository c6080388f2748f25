// End-to-end tests of the inference engine and the experiment driver.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "metrics/kendall.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace crowdrank {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.object_count = 20;
  config.selection_ratio = 0.5;
  config.worker_pool_size = 15;
  config.workers_per_task = 3;
  config.worker_quality = {QualityDistribution::Gaussian,
                           QualityLevel::High};
  config.inference.saps.iterations = 800;
  config.seed = 1234;
  return config;
}

TEST(Pipeline, HighQualityWorkersRecoverTruthAlmostExactly) {
  auto config = base_config();
  config.selection_ratio = 1.0;
  const ExperimentResult r = run_experiment(config);
  EXPECT_GT(r.accuracy, 0.97);
}

TEST(Pipeline, ResultIsValidFullRanking) {
  const ExperimentResult r = run_experiment(base_config());
  EXPECT_EQ(r.inference.ranking.size(), 20u);
  EXPECT_EQ(r.truth.size(), 20u);
}

TEST(Pipeline, AccuracyDegradesGracefullyWithWorkerQuality) {
  auto config = base_config();
  config.worker_quality.level = QualityLevel::High;
  const double high = run_experiment(config).accuracy;
  config.worker_quality.level = QualityLevel::Low;
  const double low = run_experiment(config).accuracy;
  EXPECT_GE(high, low - 0.05);
  EXPECT_GT(high, 0.9);
}

TEST(Pipeline, BiggerBudgetHelps) {
  auto config = base_config();
  config.object_count = 30;
  config.worker_quality.level = QualityLevel::Medium;
  config.selection_ratio = 0.15;
  double small_budget = 0.0;
  double large_budget = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    config.seed = seed;
    config.selection_ratio = 0.15;
    small_budget += run_experiment(config).accuracy;
    config.selection_ratio = 0.9;
    large_budget += run_experiment(config).accuracy;
  }
  EXPECT_GE(large_budget, small_budget);
}

TEST(Pipeline, PhaseTimingsCoverAllFourSteps) {
  trace::TraceSink sink;
  {
    const trace::ScopedSink scoped(&sink);
    run_experiment(base_config());
  }
  const auto spans = sink.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "infer");
  EXPECT_EQ(spans[0].parent, trace::SpanRecord::kNoParent);
  std::vector<std::string> steps;
  double step_us = 0.0;
  for (const trace::SpanRecord& span : spans) {
    if (span.parent == 0) {
      steps.push_back(span.name);
      step_us += span.dur_us;
    }
  }
  EXPECT_EQ(steps, (std::vector<std::string>{
                       "step1_truth_discovery", "step2_smoothing",
                       "step3_propagation", "step4_find_best_ranking"}));
  EXPECT_GT(step_us, 0.0);
  EXPECT_LE(step_us, spans[0].dur_us);
}

TEST(Pipeline, DiagnosticsAreConsistent) {
  const ExperimentResult r = run_experiment(base_config());
  EXPECT_EQ(r.inference.step2.one_edges_smoothed, r.inference.one_edge_count);
  EXPECT_TRUE(r.inference.step2.strongly_connected_after);
  EXPECT_TRUE(r.inference.step3.complete);
  EXPECT_EQ(r.unique_tasks, r.inference.step1.truths.size());
  EXPECT_GT(r.total_cost, 0.0);
}

TEST(Pipeline, ClosureExposedAndNormalized) {
  ExperimentConfig config = base_config();
  ClosureCapture capture;
  config.inference.control = &capture;
  run_experiment(config);
  const Matrix& closure = capture.closure();
  ASSERT_EQ(closure.rows(), 20u);
  ASSERT_TRUE(closure.is_square());
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = i + 1; j < 20; ++j) {
      EXPECT_NEAR(closure(i, j) + closure(j, i), 1.0, 1e-9);
      EXPECT_GT(closure(i, j), 0.0);
    }
    EXPECT_DOUBLE_EQ(closure(i, i), 0.0);
  }
}

/// Records, per checkpoint, whether the snapshot carried a closure.
class ClosureSightings final : public StageControl {
 public:
  void checkpoint(const StageSnapshot& snapshot) override {
    seen.emplace_back(snapshot.next, snapshot.closure != nullptr);
  }
  std::vector<std::pair<PipelineStage, bool>> seen;
};

TEST(Pipeline, ClosureIsInTheSnapshotAtRankSearchOnly) {
  // SAPS writes its costs over the closure, so the pointer must be gone by
  // Done; TAPS and Held-Karp keep the same contract. A ClosureCapture
  // forwards every checkpoint to the control it wraps.
  for (const RankSearchMethod search :
       {RankSearchMethod::Saps, RankSearchMethod::Taps,
        RankSearchMethod::HeldKarp}) {
    ClosureSightings sightings;
    ClosureCapture capture(&sightings);
    ExperimentConfig config = base_config();
    config.object_count = 8;
    config.inference.search = search;
    config.inference.control = &capture;
    run_experiment(config);
    using S = PipelineStage;
    const std::vector<std::pair<S, bool>> want = {
        {S::TruthDiscovery, false}, {S::Smoothing, false},
        {S::Propagation, false},    {S::RankSearch, true},
        {S::Done, false}};
    EXPECT_EQ(sightings.seen, want) << static_cast<int>(search);
    EXPECT_EQ(capture.closure().rows(), 8u);
  }
}

TEST(Pipeline, DeterministicGivenSeed) {
  const ExperimentResult a = run_experiment(base_config());
  const ExperimentResult b = run_experiment(base_config());
  EXPECT_EQ(a.inference.ranking, b.inference.ranking);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Pipeline, SearchMethodsAgreeOnSmallInstances) {
  auto config = base_config();
  config.object_count = 9;
  config.selection_ratio = 1.0;
  config.inference.search = RankSearchMethod::HeldKarp;
  const ExperimentResult hk = run_experiment(config);
  config.inference.search = RankSearchMethod::Taps;
  const ExperimentResult taps = run_experiment(config);
  // Both exact searches must report the same optimal probability.
  EXPECT_NEAR(hk.inference.log_probability, taps.inference.log_probability,
              1e-9);
  config.inference.search = RankSearchMethod::Saps;
  config.inference.saps.iterations = 2000;
  const ExperimentResult saps = run_experiment(config);
  EXPECT_LE(saps.inference.log_probability,
            hk.inference.log_probability + 1e-9);
  // SAPS should usually match the optimum at this size.
  EXPECT_GT(ranking_accuracy(hk.inference.ranking, saps.inference.ranking),
            0.85);
}

TEST(Pipeline, InferenceEngineRejectsForeignVotes) {
  // Votes referencing a task outside the assignment must be caught.
  Rng rng(5);
  std::vector<Edge> tasks{Edge{0, 1}};
  const HitAssignment assignment(tasks, HitConfig{1, 2}, 3, rng);
  VoteBatch votes{Vote{0, 0, 1, true}, Vote{1, 0, 1, true},
                  Vote{0, 1, 2, true}};  // (1,2) was never assigned
  const InferenceEngine engine;
  EXPECT_THROW(engine.infer(votes, 3, 3, assignment, rng), Error);
}

TEST(Pipeline, ValidatesExperimentConfig) {
  ExperimentConfig config = base_config();
  config.workers_per_task = 99;  // exceeds pool
  EXPECT_THROW(run_experiment(config), Error);
  config = base_config();
  config.object_count = 1;
  EXPECT_THROW(run_experiment(config), Error);
}

TEST(Pipeline, TinyInstancesWork) {
  // n = 2 and n = 3: the smallest legal problems exercise every boundary
  // (single task, single boundary, single smoothing candidate).
  for (const std::size_t n : {2u, 3u}) {
    ExperimentConfig config;
    config.object_count = n;
    config.selection_ratio = 1.0;
    config.worker_pool_size = 5;
    config.workers_per_task = 3;
    config.worker_quality = {QualityDistribution::Gaussian,
                             QualityLevel::High};
    config.seed = 77 + n;
    const ExperimentResult r = run_experiment(config);
    EXPECT_EQ(r.inference.ranking.size(), n);
    EXPECT_GT(r.accuracy, 0.99) << "n=" << n;  // perfect workers, all pairs
  }
}

TEST(Pipeline, UniformDistributionAlsoWorks) {
  auto config = base_config();
  config.worker_quality = {QualityDistribution::Uniform,
                           QualityLevel::Medium};
  const ExperimentResult r = run_experiment(config);
  EXPECT_GT(r.accuracy, 0.8);
}

TEST(Pipeline, ExactPathsPropagationModeOnSmallInstance) {
  auto config = base_config();
  config.object_count = 8;
  config.selection_ratio = 1.0;
  config.inference.propagation.mode = PropagationMode::ExactPaths;
  config.inference.propagation.max_length = 4;
  const ExperimentResult r = run_experiment(config);
  EXPECT_EQ(r.inference.ranking.size(), 8u);
  EXPECT_GT(r.accuracy, 0.9);
}

TEST(Pipeline, LowBudgetStillProducesFullRanking) {
  auto config = base_config();
  config.object_count = 40;
  config.selection_ratio = 0.06;  // barely above the spanning floor
  const ExperimentResult r = run_experiment(config);
  EXPECT_EQ(r.inference.ranking.size(), 40u);
  EXPECT_GT(r.accuracy, 0.5);  // far better than random even when sparse
}

}  // namespace
}  // namespace crowdrank
