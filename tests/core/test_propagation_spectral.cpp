// Unit tests for the SpectralLimit propagation mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "../graph/dense_reference.hpp"
#include "core/pipeline.hpp"
#include "core/propagation.hpp"
#include "graph/hamiltonian.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

PreferenceGraph smoothed_chain(std::size_t n, double forward = 0.9) {
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1, forward});
    edges.push_back({i + 1, i, 1.0 - forward});
  }
  return PreferenceGraph(n, edges);
}

/// The complete digraph on n vertices: `forward` on i -> j and `backward`
/// on j -> i for every i < j.
PreferenceGraph tournament(std::size_t n, double forward, double backward) {
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i != j) edges.push_back({i, j, i < j ? forward : backward});
    }
  }
  return PreferenceGraph(n, edges);
}

PropagationConfig spectral() {
  PropagationConfig config;
  config.mode = PropagationMode::SpectralLimit;
  return config;
}

/// The doubling's own walk length L for n vertices: the power of two
/// >= max(max_length, n) that the auto horizon sums to.
std::size_t walk_length(std::size_t n) {
  return std::bit_ceil(std::max(PropagationConfig{}.max_length, n));
}

/// SpectralLimit pinned to the doubling: an explicit horizon of L sums
/// exactly what the auto horizon's doubling sums, bit for bit.
PropagationConfig doubling(std::size_t n) {
  PropagationConfig config = spectral();
  config.spectral_horizon = walk_length(n);
  return config;
}

/// Runs the auto horizon and the doubling at horizon L on `g`; the auto
/// horizon must have fallen back, so both closures are the same bits.
void expect_fallback_to_doubling(const PreferenceGraph& g) {
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_TRUE(stats.perron_fallback);
  EXPECT_EQ(closure,
            propagate_preferences(g, doubling(g.vertex_count()), nullptr));
}

TEST(SpectralPropagation, ClosureCompleteAndNormalized) {
  const auto g = smoothed_chain(8);
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.pairs_without_evidence, 0u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) {
        EXPECT_DOUBLE_EQ(closure(i, j), 0.0);
      } else {
        EXPECT_GT(closure(i, j), 0.0);
        EXPECT_NEAR(closure(i, j) + closure(j, i), 1.0, 1e-12);
      }
    }
  }
}

TEST(SpectralPropagation, CoversPairsBeyondBoundedHorizon) {
  // A 40-vertex chain: endpoints are 39 hops apart, far beyond the
  // bounded default horizon — spectral still orients them correctly.
  const auto g = smoothed_chain(40, 0.95);
  const Matrix closure = propagate_preferences(g, spectral(), nullptr);
  EXPECT_GT(closure(0, 39), 0.5);
  EXPECT_GT(closure(0, 20), 0.5);
  EXPECT_GT(closure(19, 39), 0.5);

  // The bounded default (L = 12) has no walk between the endpoints, so it
  // falls back to the uninformative prior there.
  PropagationConfig bounded;
  bounded.mode = PropagationMode::BoundedWalks;
  PropagationStats stats;
  const Matrix b = propagate_preferences(g, bounded, &stats);
  EXPECT_DOUBLE_EQ(b(0, 39), 0.5);
  EXPECT_GT(stats.pairs_without_evidence, 0u);
}

TEST(SpectralPropagation, AgreesWithBoundedOnDenseGraphs) {
  // On a dense smoothed graph both modes orient pairs the same way.
  Rng rng(5);
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i < 12; ++i) {
    for (VertexId j = i + 1; j < 12; ++j) {
      const double w = (i < j) ? rng.uniform(0.6, 0.95)
                               : rng.uniform(0.05, 0.4);
      edges.push_back({i, j, w});
      edges.push_back({j, i, 1.0 - w});
    }
  }
  const PreferenceGraph g(12, edges);
  PropagationConfig bounded;
  bounded.mode = PropagationMode::BoundedWalks;
  const Matrix mb = propagate_preferences(g, bounded, nullptr);
  const Matrix ms = propagate_preferences(g, spectral(), nullptr);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (i == j) continue;
      EXPECT_EQ(mb(i, j) > 0.5, ms(i, j) > 0.5) << i << "," << j;
    }
  }
}

TEST(SpectralPropagation, EdgelessGraphFallsBackEverywhere) {
  const PreferenceGraph g(5, std::vector<WeightedEdge>{});
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_EQ(stats.pairs_without_evidence, 10u);
  EXPECT_DOUBLE_EQ(closure(0, 4), 0.5);
  expect_fallback_to_doubling(g);
}

TEST(SpectralPropagation, ClosureHamiltonianAlways) {
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = smoothed_chain(7, rng.uniform(0.55, 0.95));
    const Matrix closure = propagate_preferences(g, spectral(), nullptr);
    const PreferenceGraph cg = graph_from_matrix(closure);
    EXPECT_TRUE(cg.is_complete());
    EXPECT_TRUE(has_hamiltonian_path(cg));
  }
}

TEST(SpectralPropagation, HorizonTruncatesTheWalkSum) {
  // A 40-chain with horizon 4 covers only pairs within graph distance 4:
  // the endpoints (39 hops apart) fall back to the uninformative prior,
  // while near pairs are still oriented. The full limit covers everything.
  const auto g = smoothed_chain(40, 0.95);
  PropagationConfig truncated = spectral();
  truncated.spectral_horizon = 4;
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, truncated, &stats);
  EXPECT_DOUBLE_EQ(closure(0, 39), 0.5);
  EXPECT_GT(stats.pairs_without_evidence, 0u);
  EXPECT_GT(closure(0, 3), 0.5);
  EXPECT_NEAR(closure(2, 3) + closure(3, 2), 1.0, 1e-12);

  // Horizon >= n is the same sum the auto limit's doubling computes (n
  // rounds up to the same power of two). A chain is bipartite, so W is
  // periodic and the auto horizon must run the doubling too: the closures
  // agree exactly.
  PropagationConfig wide = spectral();
  wide.spectral_horizon = 64;
  PropagationStats auto_stats;
  const Matrix full = propagate_preferences(g, spectral(), &auto_stats);
  EXPECT_TRUE(auto_stats.perron_fallback);
  EXPECT_GT(auto_stats.doubling_steps, 0u);
  EXPECT_EQ(propagate_preferences(g, wide, nullptr), full);
}

TEST(SpectralPropagation, RejectsAHorizonOfOne) {
  const auto g = smoothed_chain(4);
  PropagationConfig bad_horizon = spectral();
  bad_horizon.spectral_horizon = 1;
  EXPECT_THROW(propagate_preferences(g, bad_horizon, nullptr), Error);
}

TEST(SpectralPropagation, NoOverflowOnHeavyGraphs) {
  // Dense near-1 weights: unnormalized W^n would overflow by astronomical
  // margins; the renormalized doubling and the max-normalized power
  // iteration must both stay finite.
  const PreferenceGraph g = tournament(64, 0.99, 0.01);
  PropagationStats doubling_stats;
  const Matrix summed = propagate_preferences(g, doubling(64), &doubling_stats);
  EXPECT_EQ(doubling_stats.doubling_steps, 6u);
  PropagationStats perron_stats;
  const Matrix limit = propagate_preferences(g, spectral(), &perron_stats);
  EXPECT_FALSE(perron_stats.perron_fallback);
  EXPECT_EQ(perron_stats.doubling_steps, 0u);
  for (const Matrix* closure : {&summed, &limit}) {
    for (const double v : closure->data()) {
      EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_GT((*closure)(0, 63), 0.5);
  }
  EXPECT_LE(Matrix::max_abs_diff(limit, summed), 1e-12);
}

TEST(SpectralPropagation, PerronLimitMatchesTheDoublingAcrossCells) {
  // Where the walk mixes within L the doubling's sum is rank one, so the
  // auto horizon's Perron closure must be the doubling's (horizon = L)
  // up to rounding and SAPS must rank both the same. Cells: three quality
  // sweeps (all six settings) and three seeds at sparser budgets, n <= 300.
  struct Cell {
    std::size_t n;
    double ratio;
    QualityDistribution distribution;
    QualityLevel level;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  for (const auto distribution :
       {QualityDistribution::Gaussian, QualityDistribution::Uniform}) {
    for (const auto level :
         {QualityLevel::High, QualityLevel::Medium, QualityLevel::Low}) {
      cells.push_back({100, 0.1, distribution, level, 1});
      cells.push_back({100, 0.3, distribution, level, 2});
      cells.push_back({60, 0.5, distribution, level, 3});
    }
  }
  for (const std::uint64_t seed : {1, 2, 3}) {
    cells.push_back({200, 0.05, QualityDistribution::Gaussian,
                     QualityLevel::Medium, seed});
    cells.push_back({300, 0.03, QualityDistribution::Uniform,
                     QualityLevel::Medium, seed});
  }
  for (const Cell& cell : cells) {
    ExperimentConfig config;
    config.object_count = cell.n;
    config.selection_ratio = cell.ratio;
    config.worker_quality = {cell.distribution, cell.level};
    config.seed = cell.seed;
    ClosureCapture limit_closure;
    config.inference.control = &limit_closure;
    const ExperimentResult limit = run_experiment(config);
    ClosureCapture summed_closure;
    config.inference.control = &summed_closure;
    config.inference.propagation.spectral_horizon = walk_length(cell.n);
    const ExperimentResult summed = run_experiment(config);
    const std::string where = "n = " + std::to_string(cell.n) +
                              ", r = " + std::to_string(cell.ratio) +
                              ", seed = " + std::to_string(cell.seed);
    EXPECT_FALSE(limit.inference.step3.perron_fallback) << where;
    EXPECT_GT(limit.inference.step3.perron_iterations, 0u) << where;
    EXPECT_EQ(limit.inference.step3.doubling_steps, 0u) << where;
    EXPECT_GT(summed.inference.step3.doubling_steps, 0u) << where;
    ASSERT_EQ(limit_closure.closure().rows(), cell.n) << where;
    EXPECT_LE(Matrix::max_abs_diff(limit_closure.closure(),
                                   summed_closure.closure()),
              1e-12)
        << where;
    EXPECT_EQ(limit.inference.ranking, summed.inference.ranking) << where;
  }
}

TEST(SpectralPropagation, PeriodicWalkFallsBackToTheDoubling) {
  // r = 0.02 at n = 100 buys l = n - 1 tasks: the task graph is a path,
  // so the smoothed graph is bipartite and W is periodic.
  ExperimentConfig config;
  config.object_count = 100;
  config.selection_ratio = 0.02;
  ClosureCapture limit_closure;
  config.inference.control = &limit_closure;
  const ExperimentResult limit = run_experiment(config);
  ASSERT_EQ(limit.unique_tasks, 99u);
  EXPECT_TRUE(limit.inference.step3.perron_fallback);
  EXPECT_GT(limit.inference.step3.doubling_steps, 0u);
  ClosureCapture summed_closure;
  config.inference.control = &summed_closure;
  config.inference.propagation.spectral_horizon = walk_length(100);
  const ExperimentResult summed = run_experiment(config);
  ASSERT_EQ(limit_closure.closure().rows(), 100u);
  EXPECT_EQ(limit_closure.closure(), summed_closure.closure());
  EXPECT_EQ(limit.inference.ranking, summed.inference.ranking);
  EXPECT_EQ(limit.inference.log_probability,
            summed.inference.log_probability);
}

TEST(SpectralPropagation, TwoComponentsFallBackToTheDoubling) {
  // Two identical dense blocks: each has the same Perron root, so the
  // power iteration converges, yet the doubling's sum is rank two and
  // leaves the cross-block pairs at 0.5. Reducibility alone must send the
  // auto horizon to the doubling.
  std::vector<WeightedEdge> edges;
  for (VertexId block : {0, 6}) {
    for (VertexId i = 0; i < 6; ++i) {
      for (VertexId j = i + 1; j < 6; ++j) {
        edges.push_back({block + i, block + j, 0.8});
        edges.push_back({block + j, block + i, 0.2});
      }
    }
  }
  const PreferenceGraph g(12, edges);
  expect_fallback_to_doubling(g);
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_EQ(stats.perron_iterations, 0u);
  EXPECT_EQ(stats.pairs_without_evidence, 36u);
  EXPECT_DOUBLE_EQ(closure(0, 6), 0.5);
}

TEST(SpectralPropagation, LightWalkFallsBackToTheDoubling) {
  // NoOverflowOnHeavyGraphs' tournament scaled by 1/100, so lambda_1 < 1:
  // the walk sum tends to the resolvent (I - W)^-1 - I, dominated by its
  // short walks rather than by lambda^L u v^T. The power iteration
  // converges as fast as on the heavy graph, so only the dominance test
  // keeps the auto horizon on the doubling.
  const PreferenceGraph g = tournament(64, 0.0099, 0.0001);
  expect_fallback_to_doubling(g);
  PropagationStats stats;
  propagate_preferences(g, spectral(), &stats);
  EXPECT_GT(stats.perron_iterations, 0u);
  EXPECT_LT(stats.perron_iterations, walk_length(64));
}

}  // namespace
}  // namespace crowdrank
