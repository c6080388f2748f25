// Unit tests for Step 2 — preference smoothing (paper §V-B).
#include "core/smoothing.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace crowdrank {
namespace {

/// Builds a Step-1 result for a chain of unanimous tasks plus one
/// contested task over 4 objects, with chosen worker qualities; workers
/// 0, 1 and 2 answer every task.
struct Fixture {
  static constexpr std::size_t n = 4;
  TruthDiscoveryResult step1;
  TaskWorkers task_workers;

  explicit Fixture(std::vector<double> qualities)
      : step1(make_step1(std::move(qualities))) {
    task_workers.offsets = {0, 3, 6, 9};
    task_workers.workers = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  }

  static TruthDiscoveryResult make_step1(std::vector<double> qualities) {
    TruthDiscoveryResult step1;
    step1.worker_quality = std::move(qualities);
    // Tasks: (0,1) unanimous forward, (1,2) unanimous backward,
    // (2,3) contested 0.7/0.3.
    step1.truths = {TaskTruth{{0, 1}, 1.0, 3}, TaskTruth{{1, 2}, 0.0, 3},
                    TaskTruth{{2, 3}, 0.7, 3}};
    return step1;
  }
};

TEST(Smoothing, OneEdgesGetBothDirections) {
  Fixture f({0.8, 0.8, 0.8});
  SmoothingStats stats;
  const auto smoothed = smooth_preferences(f.n, f.step1, f.task_workers,
                                           {}, nullptr, &stats);
  EXPECT_EQ(stats.one_edges_smoothed, 2u);
  // Forward 1-edge (0,1).
  EXPECT_LT(smoothed.weight(0, 1), 1.0);
  EXPECT_GT(smoothed.weight(1, 0), 0.0);
  EXPECT_NEAR(smoothed.weight(0, 1) + smoothed.weight(1, 0), 1.0, 1e-12);
  // Backward 1-edge (2,1).
  EXPECT_LT(smoothed.weight(2, 1), 1.0);
  EXPECT_GT(smoothed.weight(1, 2), 0.0);
  // Contested task untouched.
  EXPECT_DOUBLE_EQ(smoothed.weight(2, 3), 0.7);
  EXPECT_DOUBLE_EQ(smoothed.weight(3, 2), 0.3);
}

TEST(Smoothing, SmoothedMassMatchesExpectedError) {
  const double q = 0.8;
  Fixture f({q, q, q});
  const auto smoothed = smooth_preferences(f.n, f.step1, f.task_workers,
                                           {}, nullptr, nullptr);
  const double sigma = -std::log(q);
  const double expected_mass = sigma * std::sqrt(2.0 / M_PI);
  EXPECT_NEAR(smoothed.weight(1, 0), expected_mass, 1e-12);
}

TEST(Smoothing, PerfectWorkersStillLeaveMinimumMass) {
  // q = 1 gives sigma = 0 and expected error 0; the floor keeps the
  // reverse edge alive (otherwise Thm 5.1's guarantee dies).
  Fixture f({1.0, 1.0, 1.0});
  SmoothingConfig config;
  const auto smoothed = smooth_preferences(f.n, f.step1, f.task_workers,
                                           config, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(smoothed.weight(1, 0), config.min_mass);
  EXPECT_DOUBLE_EQ(smoothed.weight(0, 1), 1.0 - config.min_mass);
}

TEST(Smoothing, TerribleWorkersAreCappedBelowHalf) {
  // Tiny quality -> huge sigma; the cap keeps the unanimous direction
  // preferred (mass < 0.5).
  Fixture f({0.01, 0.01, 0.01});
  SmoothingConfig config;
  const auto smoothed = smooth_preferences(f.n, f.step1, f.task_workers,
                                           config, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(smoothed.weight(1, 0), config.max_mass);
  EXPECT_GT(smoothed.weight(0, 1), 0.5);
}

TEST(Smoothing, LowerQualityMeansMoreSmoothedMass) {
  Fixture good({0.95, 0.95, 0.95});
  Fixture poor({0.5, 0.5, 0.5});
  const auto sg = smooth_preferences(good.n, good.step1,
                                     good.task_workers, {}, nullptr, nullptr);
  const auto sp = smooth_preferences(poor.n, poor.step1,
                                     poor.task_workers, {}, nullptr, nullptr);
  EXPECT_LT(sg.weight(1, 0), sp.weight(1, 0));
}

TEST(Smoothing, ConnectedChainBecomesStronglyConnected) {
  Fixture f({0.8, 0.8, 0.8});
  EXPECT_FALSE(f.step1.to_preference_graph(f.n).is_strongly_connected());
  SmoothingStats stats;
  const auto smoothed = smooth_preferences(f.n, f.step1, f.task_workers,
                                           {}, nullptr, &stats);
  EXPECT_TRUE(stats.strongly_connected_after);
  EXPECT_TRUE(smoothed.is_strongly_connected());
}

TEST(Smoothing, InOutNodeCountsReported) {
  Fixture f({0.8, 0.8, 0.8});
  SmoothingStats stats;
  smooth_preferences(f.n, f.step1, f.task_workers, {}, nullptr, &stats);
  // Before smoothing: vertex 0 is an out-node (only outgoing), vertex 3 an
  // in-node.
  EXPECT_EQ(stats.out_nodes_before, 1u);
  EXPECT_EQ(stats.in_nodes_before, 1u);
}

TEST(Smoothing, SampledModeDrawsErrors) {
  Fixture f({0.5, 0.5, 0.5});
  SmoothingConfig config;
  config.mode = SmoothingMode::SampledError;
  Rng rng(1);
  const auto a = smooth_preferences(f.n, f.step1, f.task_workers, config,
                                    &rng, nullptr);
  Rng rng2(2);
  const auto b = smooth_preferences(f.n, f.step1, f.task_workers, config,
                                    &rng2, nullptr);
  // Different draws: the masses should (almost surely) differ.
  EXPECT_NE(a.weight(1, 0), b.weight(1, 0));
  // But stay within the clamp.
  EXPECT_GE(a.weight(1, 0), config.min_mass);
  EXPECT_LE(a.weight(1, 0), config.max_mass);
}

TEST(Smoothing, SampledModeRequiresRng) {
  Fixture f({0.5, 0.5, 0.5});
  SmoothingConfig config;
  config.mode = SmoothingMode::SampledError;
  EXPECT_THROW(smooth_preferences(f.n, f.step1, f.task_workers, config,
                                  nullptr, nullptr),
               Error);
}

TEST(Smoothing, ValidatesConfigAndInputs) {
  Fixture f({0.5, 0.5, 0.5});
  SmoothingConfig bad;
  bad.min_mass = 0.0;
  EXPECT_THROW(smooth_preferences(f.n, f.step1, f.task_workers, bad,
                                  nullptr, nullptr),
               Error);
  bad = {};
  bad.max_mass = 0.6;
  EXPECT_THROW(smooth_preferences(f.n, f.step1, f.task_workers, bad,
                                  nullptr, nullptr),
               Error);
  // Worker row count mismatch.
  TaskWorkers short_rows;
  short_rows.offsets = {0, 1};
  short_rows.workers = {0};
  EXPECT_THROW(smooth_preferences(f.n, f.step1, short_rows, {}, nullptr,
                                  nullptr),
               Error);
}

TEST(WorkerSigma, FromQuality) {
  EXPECT_DOUBLE_EQ(worker_sigma_from_quality(1.0), 0.0);
  EXPECT_NEAR(worker_sigma_from_quality(std::exp(-1.0)), 1.0, 1e-12);
  EXPECT_GT(worker_sigma_from_quality(0.0), 0.0);  // clamped, finite
  EXPECT_LT(worker_sigma_from_quality(0.0), 25.0);
}

}  // namespace
}  // namespace crowdrank
