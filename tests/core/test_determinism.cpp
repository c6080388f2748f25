// Determinism tests for the parallel engine: the whole inference pipeline
// and its parallel kernels must produce bitwise-identical results at one
// thread and at many. These are the tests the TSan preset runs (see
// CMakePresets.json) — they exercise every parallel region in the hot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/saps.hpp"
#include "core/saps_kernel.hpp"
#include "core/truth_discovery.hpp"
#include "crowdrank.hpp"
#include "propagation_reference.hpp"
#include "saps_reference.hpp"
#include "truth_discovery_reference.hpp"
#include "util/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/trace.hpp"

namespace crowdrank {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_thread_count(configured_thread_count());
    simd::reset_backend();
  }
};

Matrix random_square(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.3)) {
        m(i, j) = rng.uniform();
      }
    }
  }
  return m;
}

/// run_experiment plus Step 3's closure, copied at the Step-4 checkpoint
/// before SAPS consumes it.
std::pair<ExperimentResult, Matrix> run_with_closure(ExperimentConfig config) {
  ClosureCapture capture;
  config.inference.control = &capture;
  ExperimentResult result = run_experiment(config);
  EXPECT_EQ(capture.closure().rows(), config.object_count);
  return {std::move(result), capture.closure()};
}

TEST_F(DeterminismTest, MatrixMultiplyIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const Matrix a = random_square(130, rng);
  const Matrix b = random_square(130, rng);

  set_thread_count(1);
  const Matrix serial = Matrix::multiply(a, b);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    set_thread_count(threads);
    const Matrix parallel = Matrix::multiply(a, b);
    EXPECT_EQ(serial, parallel) << "threads = " << threads;
  }
}

TEST_F(DeterminismTest, PowerSumIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Matrix w = random_square(90, rng);

  set_thread_count(1);
  const Matrix serial = Matrix::power_sum(w, 2, 5);
  set_thread_count(4);
  const Matrix parallel = Matrix::power_sum(w, 2, 5);
  EXPECT_EQ(serial, parallel);
}

TEST_F(DeterminismTest,
       SparsePropagationIsBitwiseIdenticalAcrossThreadCounts) {
  // The sparse-first hybrid adds two parallel kernels to the hot path
  // (Gustavson CSR x CSR and its fused carry variant) plus a mid-loop
  // representation handoff; the closure must not depend on the thread
  // count.
  Rng rng(29);
  std::vector<WeightedEdge> edges;
  const auto has_edge = [&edges](VertexId from, VertexId to) {
    return std::any_of(edges.begin(), edges.end(), [&](const WeightedEdge& e) {
      return e.from == from && e.to == to;
    });
  };
  for (VertexId i = 0; i + 1 < 60; ++i) {
    edges.push_back({i, i + 1, 0.9});
    edges.push_back({i + 1, i, 0.1});
    // A few long-range chords so the fill grows unevenly across rows.
    if (rng.bernoulli(0.2)) {
      const auto j = static_cast<VertexId>(rng.uniform_int(0, 59));
      if (j != i && !has_edge(i, j)) {
        edges.push_back({i, j, rng.uniform(0.3, 0.7)});
      }
    }
  }
  const PreferenceGraph g(60, edges);
  PropagationConfig config;
  config.mode = PropagationMode::SpectralLimit;
  // The doubling's own length for n = 60: keeps the run on the doubling
  // whether or not the auto horizon's Perron limit would hold here.
  config.spectral_horizon = 64;
  set_thread_count(1);
  PropagationStats serial_stats;
  const Matrix serial = propagate_preferences(g, config, &serial_stats);
  EXPECT_GT(serial_stats.sparse_flops, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    set_thread_count(threads);
    PropagationStats stats;
    const Matrix parallel = propagate_preferences(g, config, &stats);
    EXPECT_EQ(serial, parallel) << "threads = " << threads;
    EXPECT_EQ(stats.densify_step, serial_stats.densify_step);
    EXPECT_EQ(stats.sparse_flops, serial_stats.sparse_flops);
  }
}

TEST_F(DeterminismTest, DoublingEqualsTheDenseOracle) {
  // Step 3's doubling runs on CSR kernels until the state's fill passes
  // 20%, then densely. Wherever it switches (at step 1, at a later step,
  // or never), its closure is the all-dense recurrence's
  // (propagation_reference.hpp) bit for bit, at 1 and at 4 threads.
  const auto chain = [](std::size_t n, double forward) {
    std::vector<WeightedEdge> edges;
    for (VertexId i = 0; i + 1 < n; ++i) {
      edges.push_back({i, i + 1, forward});
      edges.push_back({i + 1, i, 1.0 - forward});
    }
    return PreferenceGraph(n, edges);
  };
  Rng rng(37);
  std::vector<WeightedEdge> half_full;
  for (VertexId i = 0; i < 24; ++i) {
    for (VertexId j = i + 1; j < 24; ++j) {
      if (rng.bernoulli(0.5)) {
        const double w = rng.uniform(0.55, 0.95);
        half_full.push_back({i, j, w});
        half_full.push_back({j, i, 1.0 - w});
      }
    }
  }
  enum class Dense { AtStepOne, Later, Never };
  struct Case {
    const char* name;
    PreferenceGraph graph;
    std::size_t horizon;
    Dense dense;
  };
  const std::vector<Case> cases = {
      {"half-full 24", PreferenceGraph(24, half_full), 32, Dense::AtStepOne},
      {"33-chain", chain(33, 0.85), 64, Dense::Later},
      {"40-chain at horizon 4", chain(40, 0.95), 4, Dense::Never},
  };
  for (const Case& c : cases) {
    PropagationConfig config;
    config.mode = PropagationMode::SpectralLimit;
    config.spectral_horizon = c.horizon;
    const Matrix oracle = dense_doubling_closure(c.graph, config);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      set_thread_count(threads);
      PropagationStats stats;
      const Matrix closure = propagate_preferences(c.graph, config, &stats);
      EXPECT_EQ(closure, oracle) << c.name << ", threads = " << threads;
      EXPECT_EQ(stats.doubling_steps,
                static_cast<std::size_t>(std::countr_zero(c.horizon)))
          << c.name;
      switch (c.dense) {
        case Dense::AtStepOne:
          EXPECT_EQ(stats.densify_step, 1u) << c.name;
          EXPECT_EQ(stats.sparse_flops, 0u) << c.name;
          EXPECT_DOUBLE_EQ(stats.fill_ratio, 1.0) << c.name;
          break;
        case Dense::Later:
          EXPECT_GT(stats.densify_step, 1u) << c.name;
          EXPECT_GT(stats.sparse_flops, 0u) << c.name;
          EXPECT_DOUBLE_EQ(stats.fill_ratio, 1.0) << c.name;
          break;
        case Dense::Never:
          EXPECT_EQ(stats.densify_step, 0u) << c.name;
          EXPECT_GT(stats.sparse_flops, 0u) << c.name;
          EXPECT_GT(stats.fill_ratio, 0.0) << c.name;
          EXPECT_LT(stats.fill_ratio, 1.0) << c.name;
          break;
      }
    }
  }
}

TEST_F(DeterminismTest, PerronLimitIsBitwiseIdenticalAcrossThreadsAndSimd) {
  // The auto horizon's power iteration runs its CSR passes row-parallel
  // from 2^15 edges on; row sums in CSR order and exact max-reduces keep
  // the closure independent of thread count and SIMD backend.
  Rng rng(31);
  const std::size_t n = 200;
  const std::vector<std::size_t> latent = rng.permutation(n);
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      if (!rng.bernoulli(0.9)) {
        continue;
      }
      const double w = rng.uniform(0.55, 0.95);
      const bool forward = latent[i] < latent[j];
      edges.push_back({i, j, forward ? w : 1.0 - w});
      edges.push_back({j, i, forward ? 1.0 - w : w});
    }
  }
  const PreferenceGraph g(n, edges);
  ASSERT_GE(g.edge_count(), std::size_t{1} << 15);
  PropagationConfig config;
  config.mode = PropagationMode::SpectralLimit;

  set_thread_count(1);
  PropagationStats serial_stats;
  const Matrix serial = propagate_preferences(g, config, &serial_stats);
  ASSERT_FALSE(serial_stats.perron_fallback);
  ASSERT_GT(serial_stats.perron_iterations, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    set_thread_count(threads);
    PropagationStats stats;
    EXPECT_EQ(propagate_preferences(g, config, &stats), serial)
        << "threads = " << threads;
    EXPECT_EQ(stats.perron_iterations, serial_stats.perron_iterations);
    EXPECT_EQ(stats.perron_ratio, serial_stats.perron_ratio);
  }
  if (simd::avx2_supported()) {
    for (const simd::Backend backend :
         {simd::Backend::Scalar, simd::Backend::Avx2}) {
      ASSERT_TRUE(simd::set_backend(backend));
      EXPECT_EQ(propagate_preferences(g, config, nullptr), serial);
    }
  }
}

TEST_F(DeterminismTest, SapsIsBitwiseIdenticalAcrossThreadCounts) {
  // The parallel-restart SAPS kernel: restart chains fan out across the
  // pool with per-restart Rng streams derived from (seed, restart index),
  // and the winner is a deterministic min-reduction — so the search output
  // must be bitwise-identical at 1 vs N threads, for both the configurable
  // restart count and paper_mode's full per-vertex sweep.
  Rng setup(19);
  Matrix closure(60, 60, 0.0);
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t j = i + 1; j < 60; ++j) {
      const double w = setup.uniform(0.05, 0.95);
      closure(i, j) = w;
      closure(j, i) = 1.0 - w;
    }
  }

  for (const bool paper_mode : {false, true}) {
    SapsConfig config;
    config.iterations = paper_mode ? 60 : 400;
    config.restarts = 6;
    config.paper_mode = paper_mode;

    set_thread_count(1);
    Rng serial_rng(77);
    const SapsResult serial = saps_search(closure, config, serial_rng);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      set_thread_count(threads);
      Rng parallel_rng(77);
      const SapsResult parallel = saps_search(closure, config, parallel_rng);
      EXPECT_EQ(serial.best_path, parallel.best_path)
          << "threads = " << threads << ", paper_mode = " << paper_mode;
      EXPECT_EQ(serial.log_cost, parallel.log_cost);  // bitwise
      EXPECT_EQ(serial.moves_proposed, parallel.moves_proposed);
      EXPECT_EQ(serial.moves_accepted, parallel.moves_accepted);
      EXPECT_EQ(serial.restarts_run, parallel.restarts_run);

      // And repeated runs with the same seed at the same width agree too.
      Rng repeat_rng(77);
      const SapsResult repeat = saps_search(closure, config, repeat_rng);
      EXPECT_EQ(parallel.best_path, repeat.best_path);
      EXPECT_EQ(parallel.log_cost, repeat.log_cost);
    }
  }
}

TEST_F(DeterminismTest, SapsSearchMatchesTheReferenceBitForBit) {
  // The whole search against tests/core/saps_reference.cpp: per-restart
  // starts, uncached deltas and bernoulli(exp(x)). Odd seeds use
  // quarter-step weights, so the start order has ties and zero weights
  // hit the safe_log floor. At n = 170 the default config proposes
  // 4 x 3000 x 170 > 2M moves, so the restarts fan out across the pool
  // and read the shared start concurrently. The consuming form, which the
  // engine calls, must take the start order from the weights before it
  // writes the costs over them.
  struct Moves {
    bool rotate, reverse, swap;
  };
  const Moves move_sets[] = {{true, true, true},
                             {true, false, false},
                             {false, true, false},
                             {false, false, true}};
  std::size_t searches = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const std::size_t n : {2, 3, 17, 100, 170}) {
      Rng setup(seed * 1000 + n);
      Matrix closure(n, n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          const double w =
              seed % 2 == 1
                  ? 0.25 * static_cast<double>(setup.uniform_index(5))
                  : setup.uniform(0.05, 0.95);
          closure(i, j) = w;
          closure(j, i) = 1.0 - w;
        }
      }
      for (const bool paper_mode : {false, true}) {
        if (paper_mode && n > 17) continue;
        for (const auto mode : {SapsInitMode::WeightDifferenceRanking,
                                SapsInitMode::GreedyNearestNeighbor,
                                SapsInitMode::RandomPermutation}) {
          for (const Moves& moves : move_sets) {
            SapsConfig config;
            config.paper_mode = paper_mode;
            config.init_mode = mode;
            config.use_rotate = moves.rotate;
            config.use_reverse = moves.reverse;
            config.use_swap = moves.swap;
            Rng want_rng(seed);
            const SapsResult want =
                saps_search_reference(closure, config, want_rng);
            const std::uint64_t want_next = want_rng();
            for (const std::size_t threads : {1, 4}) {
              SCOPED_TRACE("seed " + std::to_string(seed) + ", n " +
                           std::to_string(n) + ", paper_mode " +
                           std::to_string(paper_mode) + ", init " +
                           std::to_string(static_cast<int>(mode)) +
                           ", moves " + std::to_string(moves.rotate) +
                           std::to_string(moves.reverse) +
                           std::to_string(moves.swap) + ", threads " +
                           std::to_string(threads));
              set_thread_count(threads);
              // Both forms: the const one searches a copy, the consuming
              // one writes its costs over the closure it is handed.
              for (const bool consume : {false, true}) {
                SCOPED_TRACE(consume ? "Matrix&&" : "const Matrix&");
                Rng got_rng(seed);
                const SapsResult got =
                    consume ? saps_search(Matrix(closure), config, got_rng)
                            : saps_search(closure, config, got_rng);
                EXPECT_EQ(got.best_path, want.best_path);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got.log_cost),
                          std::bit_cast<std::uint64_t>(want.log_cost));
                EXPECT_EQ(got.moves_proposed, want.moves_proposed);
                EXPECT_EQ(got.moves_accepted, want.moves_accepted);
                EXPECT_EQ(got.restarts_run, want.restarts_run);
                EXPECT_EQ(got_rng(), want_next);  // one draw from the caller
                ++searches;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(searches, 8u * (5 + 3) * 3 * 4 * 2 * 2);
}

TEST_F(DeterminismTest, TruthDiscoveryMatchesTheReferenceAcrossThreadCounts) {
  // A synthetic batch whose contested tasks alone span several E-step
  // chunks, so the contested passes fan out across the pool. Both thread
  // counts must reproduce the all-rows reference loop bit for bit.
  VoteBatch votes;
  Rng rng(23);
  const std::size_t n = 120;
  const std::size_t workers = 24;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      if (!rng.bernoulli(0.3)) continue;
      for (int rep = 0; rep < 3; ++rep) {
        Vote v;
        v.i = i;
        v.j = j;
        v.worker = static_cast<WorkerId>(rng.uniform_index(workers));
        v.prefers_i = rng.bernoulli(0.7);
        votes.push_back(v);
      }
    }
  }

  VoteIndex want_index;
  const TruthDiscoveryResult want = discover_truth_reference(
      votes, n, workers, TruthDiscoveryConfig{}, &want_index);
  for (const std::size_t threads : {1, 4}) {
    set_thread_count(threads);
    VoteIndex index;
    const TruthDiscoveryResult got =
        discover_truth(votes, n, workers, TruthDiscoveryConfig{}, &index);
    EXPECT_EQ(step1_mismatch(got, index, want, want_index), "")
        << "threads = " << threads;
    EXPECT_GT(got.contested_tasks, 2 * std::size_t{512});
    EXPECT_LT(got.full_passes, got.iterations);
  }
}

TEST_F(DeterminismTest, MovedBatchInferenceMatchesTheConstOverload) {
  // infer(VoteBatch&&) releases the batch once step 1 has indexed it and
  // is otherwise the const& run: the same ranking, log-probability,
  // step-1 truths and qualities, and the same draws from the caller's
  // Rng, with and without an assignment, at 1 and 4 threads. The batch
  // holds more than 2^14 votes, so step 1's passes fan out on the pool.
  const std::size_t n = 120;
  const std::size_t pool = 30;
  Rng rng(31);
  const TaskAssignment plan = generate_task_assignment(n, 6000, rng);
  const std::vector<Edge> edges(plan.graph.edges().begin(),
                                plan.graph.edges().end());
  const HitAssignment hits(edges, {5, 3}, pool, rng);
  const auto workers = sample_worker_pool(
      pool, {QualityDistribution::Gaussian, QualityLevel::Medium}, rng);
  const VoteBatch votes =
      SimulatedCrowd(Ranking::identity(n), workers).collect(hits, rng);
  ASSERT_GT(votes.size(), std::size_t{1} << 14);

  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const InferenceEngine engine;
  for (const bool with_assignment : {false, true}) {
    set_thread_count(1);
    Rng want_rng(5);
    const InferenceResult want =
        with_assignment ? engine.infer(votes, n, pool, hits, want_rng)
                        : engine.infer(votes, n, pool, want_rng);
    for (const std::size_t threads : {1, 4}) {
      set_thread_count(threads);
      SCOPED_TRACE(testing::Message() << "threads = " << threads
                                      << ", assignment = " << with_assignment);
      VoteBatch moved = votes;
      Rng got_rng(5);
      const InferenceResult got =
          with_assignment
              ? engine.infer(std::move(moved), n, pool, hits, got_rng)
              : engine.infer(std::move(moved), n, pool, got_rng);
      // NOLINTNEXTLINE(bugprone-use-after-move): the engine empties it.
      EXPECT_TRUE(moved.empty());
      EXPECT_EQ(moved.capacity(), 0u);
      EXPECT_EQ(got.ranking, want.ranking);
      EXPECT_TRUE(same_bits(got.log_probability, want.log_probability));
      Rng want_next = want_rng;
      EXPECT_EQ(got_rng(), want_next());
      ASSERT_EQ(got.step1.truths.size(), want.step1.truths.size());
      for (std::size_t t = 0; t < got.step1.truths.size(); ++t) {
        EXPECT_EQ(got.step1.truths[t].task, want.step1.truths[t].task);
        EXPECT_TRUE(same_bits(got.step1.truths[t].x, want.step1.truths[t].x))
            << "truth " << t;
      }
      EXPECT_TRUE(std::ranges::equal(got.step1.worker_quality,
                                     want.step1.worker_quality, same_bits));
      EXPECT_TRUE(std::ranges::equal(got.step1.worker_weight,
                                     want.step1.worker_weight, same_bits));
      EXPECT_EQ(got.one_edge_count, want.one_edge_count);
    }
  }
}

TEST_F(DeterminismTest, WeightDifferenceOrderMatchesTheSerialScanAcrossThreads) {
  // Blocks of v run on the pool; each v must still sum over ascending u,
  // so the order equals a serial per-vertex scan. Uniform weights give
  // inexact sums; quarter-step weights give equal sums, so ties are
  // checked too. In the cancelling matrix, each vertex a (three, in
  // different pool tasks) adds +1, 1e-16 and -1 over ascending u, which
  // sums to 0 and ties it with the zero rows, while the reverse order
  // leaves 2^-53 and moves it. Both sizes split into several pool tasks.
  for (const std::size_t n : {300, 700}) {
    Rng rng(4000 + n);
    Matrix uniform(n, n, 0.0);
    Matrix quarters(n, n, 0.0);
    Matrix cancelling(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        uniform(i, j) = rng.uniform();
        uniform(j, i) = 1.0 - uniform(i, j);
        quarters(i, j) = 0.25 * static_cast<double>(rng.uniform_index(5));
        quarters(j, i) = 1.0 - quarters(i, j);
      }
    }
    for (const std::size_t a : {std::size_t{5}, n / 2, n - 5}) {
      cancelling(a, a - 2) = 1.0;
      cancelling(a, a - 1) = 1e-16;
      cancelling(a + 2, a) = 1.0;
    }
    const std::pair<const char*, const Matrix*> cases[] = {
        {"uniform", &uniform},
        {"quarters", &quarters},
        {"cancelling", &cancelling}};
    for (const auto& [name, m] : cases) {
      std::vector<double> diff(n, 0.0);
      for (VertexId v = 0; v < n; ++v) {
        for (VertexId u = 0; u < n; ++u) {
          if (u != v) diff[v] += (*m)(v, u) - (*m)(u, v);
        }
      }
      Path expected(n);
      std::iota(expected.begin(), expected.end(), VertexId{0});
      std::stable_sort(
          expected.begin(), expected.end(),
          [&](VertexId a, VertexId b) { return diff[a] > diff[b]; });
      for (const std::size_t threads : {1, 4}) {
        set_thread_count(threads);
        EXPECT_EQ(weight_difference_order(*m), expected)
            << "n = " << n << ", " << name << ", threads = " << threads;
      }
    }
  }
}

TEST_F(DeterminismTest, PipelineOutputIsIdenticalAcrossThreadCounts) {
  ExperimentConfig config;
  config.object_count = 60;
  config.selection_ratio = 0.15;
  config.worker_pool_size = 12;
  config.workers_per_task = 3;
  config.seed = 1234;

  set_thread_count(1);
  const auto [serial, serial_closure] = run_with_closure(config);
  set_thread_count(4);
  const auto [parallel, parallel_closure] = run_with_closure(config);

  // Bitwise-identical Step 3 closure, identical final ranking and score.
  EXPECT_EQ(serial_closure, parallel_closure);
  EXPECT_EQ(serial.inference.ranking, parallel.inference.ranking);
  EXPECT_EQ(serial.inference.log_probability,
            parallel.inference.log_probability);
  EXPECT_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_EQ(serial.inference.step3.pairs_without_evidence,
            parallel.inference.step3.pairs_without_evidence);
}

TEST_F(DeterminismTest, PipelineOutputIsIdenticalAcrossSimdBackends) {
  // The AVX2 kernels (util/simd.hpp) must be bitwise-identical to the
  // scalar reference end to end: same closure bits, same ranking, same
  // log-probability, whichever backend the dispatch lands on. Skipped
  // (scalar vs scalar) on hosts without AVX2.
  if (!simd::avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  ExperimentConfig config;
  config.object_count = 60;
  config.selection_ratio = 0.15;
  config.worker_pool_size = 12;
  config.workers_per_task = 3;
  config.seed = 1234;

  ASSERT_TRUE(simd::set_backend(simd::Backend::Scalar));
  const auto [scalar, scalar_closure] = run_with_closure(config);
  ASSERT_TRUE(simd::set_backend(simd::Backend::Avx2));
  const auto [avx2, avx2_closure] = run_with_closure(config);
  simd::reset_backend();

  EXPECT_EQ(scalar_closure, avx2_closure);
  EXPECT_EQ(scalar.inference.ranking, avx2.inference.ranking);
  EXPECT_EQ(scalar.inference.log_probability,
            avx2.inference.log_probability);
  EXPECT_EQ(scalar.accuracy, avx2.accuracy);
}

TEST_F(DeterminismTest, TracingNeverPerturbsPipelineResults) {
  // The observability layer must be observe-only: running with a sink
  // attached has to produce bitwise-identical results to running without,
  // at one thread and at several. Instrumentation that consumed RNG or
  // reordered work would fail this.
  ExperimentConfig config;
  config.object_count = 50;
  config.selection_ratio = 0.15;
  config.worker_pool_size = 12;
  config.workers_per_task = 3;
  config.seed = 4321;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);

    const auto [plain, plain_closure] = run_with_closure(config);

    trace::TraceSink sink;
    const auto [traced, traced_closure] = [&] {
      const trace::ScopedSink scoped(&sink);
      return run_with_closure(config);
    }();

    EXPECT_EQ(plain_closure, traced_closure) << "threads = " << threads;
    EXPECT_EQ(plain.inference.ranking, traced.inference.ranking)
        << "threads = " << threads;
    EXPECT_EQ(plain.inference.log_probability,
              traced.inference.log_probability)
        << "threads = " << threads;
    EXPECT_EQ(plain.accuracy, traced.accuracy) << "threads = " << threads;

    // And the traced run actually recorded the pipeline: the four step
    // spans under one root, plus the convergence series.
    const auto spans = sink.spans();
    ASSERT_GE(spans.size(), 5u) << "threads = " << threads;
    EXPECT_EQ(spans[0].name, "infer");
    EXPECT_EQ(spans[1].name, "step1_truth_discovery");
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_GT(sink.metrics().counter("truth_discovery.iterations").value(),
              0u);
  }
}

/// All pairs of `n` objects, three workers, one vote in five flipped: a
/// batch the engine has to smooth and search, not just read off.
VoteBatch noisy_batch(std::size_t n) {
  VoteBatch votes;
  for (WorkerId w = 0; w < 3; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, (i * 7 + j * 3 + w) % 5 != 0});
      }
    }
  }
  return votes;
}

/// Indices of the spans whose parent is `parent`, in open order.
std::vector<std::size_t> children_of(
    const std::vector<trace::SpanRecord>& spans, std::size_t parent) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == parent) out.push_back(i);
  }
  return out;
}

/// The names of the spans at `indices`.
std::vector<std::string> names_of(const std::vector<trace::SpanRecord>& spans,
                                  const std::vector<std::size_t>& indices) {
  std::vector<std::string> out;
  for (const std::size_t i : indices) out.push_back(spans[i].name);
  return out;
}

const std::vector<std::string> kStepNames = {
    "step1_truth_discovery", "step2_smoothing", "step3_propagation",
    "step4_find_best_ranking"};

TEST_F(DeterminismTest, EngineRecordsIntoTheCallersSinkAndLeavesItInstalled) {
  const std::size_t n = 12;
  const VoteBatch votes = noisy_batch(n);
  trace::TraceSink sink;
  {
    const trace::ScopedSink scoped(&sink);
    Rng rng(3);
    InferenceEngine{}.infer(votes, n, 3, rng);
    EXPECT_EQ(trace::sink(), &sink);
  }
  const auto spans = sink.spans();
  const std::vector<std::size_t> roots =
      children_of(spans, trace::SpanRecord::kNoParent);
  ASSERT_FALSE(roots.empty());
  EXPECT_EQ(spans[roots.front()].name, "infer");
  EXPECT_EQ(names_of(spans, children_of(spans, roots.front())), kStepNames);
}

TEST_F(DeterminismTest, ConcurrentRunsEachRecordOnlyIntoTheirOwnSink) {
  // Two threads share the pool, each running under its own sink: every
  // run's spans, worker lanes included, must land in its thread's sink,
  // and tracing must not change a bit of any result.
  constexpr std::size_t kRuns = 8;
  const std::size_t n = 30;
  const VoteBatch votes = noisy_batch(n);
  set_thread_count(4);
  struct Run {
    InferenceResult result;
    Matrix closure;  ///< copied at the Step-4 checkpoint
  };
  const auto run_all = [&](std::vector<Run>& out) {
    for (std::size_t k = 0; k < kRuns; ++k) {
      ClosureCapture capture;
      InferenceConfig config;
      config.control = &capture;
      const InferenceEngine engine(config);
      Rng rng(100 + k);
      InferenceResult result = engine.infer(votes, n, 3, rng);
      EXPECT_EQ(capture.closure().rows(), n);
      out.push_back({std::move(result), capture.closure()});
    }
  };
  std::vector<Run> untraced;
  run_all(untraced);

  trace::TraceSink sinks[2];
  std::vector<Run> traced[2];
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const trace::ScopedSink scoped(&sinks[t]);
      run_all(traced[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < 2; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    const auto spans = sinks[t].spans();
    std::size_t infer_spans = 0;
    for (const trace::SpanRecord& span : spans) {
      infer_spans += span.name == "infer" ? 1 : 0;
    }
    EXPECT_EQ(infer_spans, kRuns);
    std::size_t infer_roots = 0;
    for (const std::size_t root :
         children_of(spans, trace::SpanRecord::kNoParent)) {
      if (spans[root].name != "infer") continue;  // a worker lane's span
      ++infer_roots;
      EXPECT_EQ(names_of(spans, children_of(spans, root)), kStepNames);
    }
    EXPECT_EQ(infer_roots, kRuns);
    ASSERT_EQ(traced[t].size(), kRuns);
    for (std::size_t k = 0; k < kRuns; ++k) {
      const InferenceResult& got = traced[t][k].result;
      const InferenceResult& want = untraced[k].result;
      EXPECT_EQ(got.ranking, want.ranking) << "run " << k;
      EXPECT_EQ(got.log_probability, want.log_probability) << "run " << k;
      EXPECT_EQ(traced[t][k].closure, untraced[k].closure) << "run " << k;
    }
  }
}

TEST_F(DeterminismTest, ApiFacadeMatchesEngineAcrossThreadCounts) {
  // The crowdrank::api facade must be a pure repackaging: with repair off
  // it reproduces the engine's output bit for bit, and with repair on a
  // clean batch it still does (hardening leaves clean input untouched) —
  // at one kernel thread and at several.
  VoteBatch votes;
  const std::size_t n = 12;
  for (WorkerId w = 0; w < 3; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, true});
      }
    }
  }

  api::Request request;
  request.votes = votes;
  request.object_count = n;
  request.worker_count = 3;
  request.seed = 99;

  set_thread_count(1);
  Rng engine_rng(99);
  const InferenceResult direct =
      InferenceEngine{}.infer(votes, n, 3, engine_rng);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    for (const bool repair : {false, true}) {
      request.repair = repair;
      const api::Response response = api::rank(request);
      ASSERT_TRUE(response.ok())
          << "threads = " << threads << ", repair = " << repair
          << ", reason: " << response.reason;
      EXPECT_EQ(response.outcome, service::JobOutcome::Completed);
      EXPECT_EQ(response.ranking.order,
                std::vector<VertexId>(direct.ranking.order().begin(),
                                      direct.ranking.order().end()))
          << "threads = " << threads << ", repair = " << repair;
      EXPECT_EQ(response.log_probability, direct.log_probability);
    }
  }
}

TEST_F(DeterminismTest, ServiceResultsAreIdenticalAcrossKernelThreadCounts) {
  // Service executors force kernel regions inline (InlineRegion), so the
  // configured pool width must not leak into job content either.
  VoteBatch votes;
  const std::size_t n = 10;
  for (WorkerId w = 0; w < 3; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, true});
      }
    }
  }
  const auto run_once = [&] {
    service::ServiceConfig config;
    config.worker_count = 2;
    service::RankingService svc(config);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      service::RankingJob job;
      job.votes = votes;
      job.object_count = n;
      job.seed = seed;
      svc.submit(std::move(job));
    }
    return svc.drain();
  };

  set_thread_count(1);
  const auto narrow = run_once();
  set_thread_count(4);
  const auto wide = run_once();
  ASSERT_EQ(narrow.size(), wide.size());
  for (std::size_t k = 0; k < narrow.size(); ++k) {
    EXPECT_EQ(narrow[k].outcome, wide[k].outcome);
    EXPECT_EQ(narrow[k].ranking.order, wide[k].ranking.order);
    EXPECT_EQ(narrow[k].log_probability, wide[k].log_probability);
  }
}

TEST_F(DeterminismTest, CacheHitIsBitwiseIdenticalToColdRecomputation) {
  // The result cache's whole premise: a warm hit returns exactly what a
  // cold recomputation would produce — at any kernel thread count. Messy
  // votes exercise the hardening path so the cached deliverable covers
  // repair accounting too.
  VoteBatch votes;
  const std::size_t n = 9;
  for (WorkerId w = 0; w < 3; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, (i + j + w) % 3 != 0});
      }
    }
  }
  votes.push_back(Vote{0, 2, 2, true});   // self vote: hardening drops it
  votes.push_back(Vote{1, 0, 50, true});  // out of range: dropped too

  service::ResultCache cache;
  api::Request request;
  request.votes = votes;
  request.object_count = n;
  request.seed = 5;
  request.cache = &cache;

  set_thread_count(1);
  const api::Response cold = api::rank(request);
  ASSERT_TRUE(cold.ok()) << cold.reason;
  ASSERT_FALSE(cold.served_from_cache);
  ASSERT_FALSE(cold.artifact_key.empty());
  ASSERT_TRUE(cold.hardening.repaired());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    ClosureCapture capture;
    request.inference.control = &capture;
    const api::Response warm = api::rank(request);
    ASSERT_TRUE(warm.served_from_cache) << "threads = " << threads;
    EXPECT_EQ(warm.outcome, cold.outcome);
    EXPECT_EQ(warm.stage, cold.stage);
    EXPECT_EQ(warm.ranking, cold.ranking);
    EXPECT_EQ(warm.hardening, cold.hardening);
    EXPECT_EQ(warm.log_probability, cold.log_probability);
    EXPECT_EQ(warm.artifact_key, cold.artifact_key);
    // The engine never ran: a hit carries the deliverable only, and a
    // closure capture stays empty.
    EXPECT_FALSE(warm.inference.has_value());
    EXPECT_EQ(capture.closure().rows(), 0u);
  }

  // Bypass ignores the cache and recomputes — and lands on the same bits,
  // which is the other direction of the identity.
  ClosureCapture capture;
  request.inference.control = &capture;
  request.cache_control = service::CacheControl::Bypass;
  const api::Response bypass = api::rank(request);
  ASSERT_TRUE(bypass.ok()) << bypass.reason;
  EXPECT_FALSE(bypass.served_from_cache);
  EXPECT_EQ(capture.closure().rows(), n);
  EXPECT_EQ(bypass.ranking, cold.ranking);
  EXPECT_EQ(bypass.log_probability, cold.log_probability);
}

TEST_F(DeterminismTest, ServiceWarmResubmissionSkipsInferEntirely) {
  // Warm replays poison the infer stage with an injected fault: if the
  // pipeline were entered at all, every job would Fail at TruthDiscovery.
  // Settling bitwise-identical to the cold batch proves a hit short-
  // circuits validate→harden→infer, not just that it matches.
  VoteBatch votes;
  const std::size_t n = 10;
  for (WorkerId w = 0; w < 3; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, true});
      }
    }
  }
  service::ResultCache cache;
  const auto run_batch = [&](std::size_t executors, bool poison_infer) {
    service::ServiceConfig config;
    config.worker_count = executors;
    config.cache = &cache;
    service::RankingService svc(config);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      service::RankingJob job;
      job.votes = votes;
      job.object_count = n;
      job.seed = seed;
      if (poison_infer) {
        job.fault.fail_before = PipelineStage::TruthDiscovery;
      }
      svc.submit(std::move(job));
    }
    return svc.drain();
  };

  set_thread_count(1);
  const auto cold = run_batch(1, /*poison_infer=*/false);
  for (const auto& result : cold) {
    ASSERT_EQ(result.outcome, service::JobOutcome::Completed)
        << result.reason;
    ASSERT_FALSE(result.served_from_cache);
    ASSERT_FALSE(result.artifact_key.empty());
  }

  for (const std::size_t executors : {std::size_t{1}, std::size_t{4}}) {
    const auto warm = run_batch(executors, /*poison_infer=*/true);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t k = 0; k < cold.size(); ++k) {
      EXPECT_TRUE(warm[k].served_from_cache)
          << "executors = " << executors << ", job " << k;
      EXPECT_EQ(warm[k].outcome, cold[k].outcome);
      EXPECT_EQ(warm[k].ranking, cold[k].ranking);
      EXPECT_EQ(warm[k].hardening, cold[k].hardening);
      EXPECT_EQ(warm[k].log_probability, cold[k].log_probability);
      EXPECT_EQ(warm[k].artifact_key, cold[k].artifact_key);
    }
  }

  // Control: against an empty cache the same poisoned job really does
  // fail — the warm passes above were cache hits, not fault-plan luck.
  service::ResultCache empty_cache;
  service::ServiceConfig config;
  config.worker_count = 1;
  config.cache = &empty_cache;
  service::RankingService svc(config);
  service::RankingJob poisoned;
  poisoned.votes = votes;
  poisoned.object_count = n;
  poisoned.seed = 1;
  poisoned.fault.fail_before = PipelineStage::TruthDiscovery;
  svc.submit(std::move(poisoned));
  const auto failed = svc.drain();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].outcome, service::JobOutcome::Failed);
  EXPECT_FALSE(failed[0].served_from_cache);
}

}  // namespace
}  // namespace crowdrank
