// Micro benchmarks (google-benchmark) for the primitives the pipeline's
// asymptotics rest on: Kendall-tau, the blocked matmul behind Step 3, the
// chi-squared quantile behind Eq. 5, one truth-discovery sweep, SAPS
// moves, and the exact searches.
#include <benchmark/benchmark.h>

#include "core/propagation.hpp"
#include "core/saps.hpp"
#include "core/saps_kernel.hpp"
#include "core/taps.hpp"
#include "core/truth_discovery.hpp"
#include "graph/hamiltonian.hpp"
#include "metrics/kendall.hpp"
#include "util/math.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

void BM_KendallTau(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto pa = rng.permutation(n);
  const auto pb = rng.permutation(n);
  const Ranking a(std::vector<VertexId>(pa.begin(), pa.end()));
  const Ranking b(std::vector<VertexId>(pb.begin(), pb.end()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kendall_tau_distance(a, b));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_KendallTau)->Range(64, 8192)->Complexity(benchmark::oNLogN);

void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix a(n, n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform();
      b(i, j) = rng.uniform();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matrix::multiply(a, b));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_MatrixMultiply)->Range(64, 512)->Complexity();

void BM_ChiSquaredQuantile(benchmark::State& state) {
  double p = 0.018;
  for (auto _ : state) {
    p = p < 0.9 ? p + 1e-4 : 0.018;
    benchmark::DoNotOptimize(
        math::chi_squared_quantile(p, static_cast<double>(state.range(0))));
  }
}
BENCHMARK(BM_ChiSquaredQuantile)->Arg(10)->Arg(100)->Arg(1000);

void BM_TruthDiscovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  VoteBatch votes;
  const std::size_t m = 30;
  for (VertexId i = 0; i + 1 < n; ++i) {
    for (VertexId jump = 1; jump <= 5 && i + jump < n; ++jump) {
      for (WorkerId rep = 0; rep < 3; ++rep) {
        const auto k = static_cast<WorkerId>(rng.uniform_index(m));
        votes.push_back(Vote{k, i, i + jump, !rng.bernoulli(0.1)});
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(discover_truth(votes, n, m, {}));
  }
}
BENCHMARK(BM_TruthDiscovery)->Arg(100)->Arg(500);

void BM_SapsSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Matrix closure(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = rng.uniform(0.05, 0.95);
      closure(i, j) = w;
      closure(j, i) = 1.0 - w;
    }
  }
  SapsConfig config;
  config.iterations = 1000;
  config.restarts = 1;
  for (auto _ : state) {
    Rng search_rng(5);
    benchmark::DoNotOptimize(saps_search(closure, config, search_rng));
  }
}
BENCHMARK(BM_SapsSearch)->Arg(100)->Arg(500)->Arg(1000);

void BM_SapsMoveDeltas(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix closure(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = rng.uniform(0.05, 0.95);
      closure(i, j) = w;
      closure(j, i) = 1.0 - w;
    }
  }
  Path path(n);
  for (std::size_t i = 0; i < n; ++i) path[i] = i;
  rng.shuffle(path);
  std::size_t a = n / 4;
  std::size_t b = 3 * n / 4;
  const SapsCostCache cache(closure);
  for (auto _ : state) {
    // One of each move's delta: rotate and swap are O(1), reverse O(len).
    benchmark::DoNotOptimize(
        saps_rotate_delta(cache, path, a, (a + b) / 2, b));
    benchmark::DoNotOptimize(saps_reverse_delta(cache, path, a, b));
    benchmark::DoNotOptimize(saps_swap_delta(cache, path, a, b));
  }
}
BENCHMARK(BM_SapsMoveDeltas)->Arg(100)->Arg(1000);

void BM_SpectralPropagation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) {
    const double w = rng.uniform(0.6, 0.95);
    edges.push_back({i, i + 1, w});
    edges.push_back({i + 1, i, 1.0 - w});
  }
  const PreferenceGraph g(n, edges);
  PropagationConfig config;
  config.mode = state.range(1) == 0 ? PropagationMode::BoundedWalks
                                    : PropagationMode::SpectralLimit;
  for (auto _ : state) {
    benchmark::DoNotOptimize(propagate_preferences(g, config, nullptr));
  }
}
BENCHMARK(BM_SpectralPropagation)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({400, 0})
    ->Args({400, 1});

void BM_TapsVersusHeldKarp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  Matrix closure(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = rng.uniform(0.2, 0.8);
      closure(i, j) = w;
      closure(j, i) = 1.0 - w;
    }
  }
  if (state.range(1) == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(taps_search(closure));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(max_probability_hamiltonian_path(closure));
    }
  }
}
BENCHMARK(BM_TapsVersusHeldKarp)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({11, 0})
    ->Args({11, 1});

}  // namespace
}  // namespace crowdrank

BENCHMARK_MAIN();
