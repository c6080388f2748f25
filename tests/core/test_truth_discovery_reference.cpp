// Step 1 against its reference loop (truth_discovery_reference.hpp): the
// contested-row passes must reproduce the all-rows CRH loop bit for bit —
// every truth, both worker vectors, the iteration count, the converged
// flag and the index the engine reads. Also pins which passes go to the
// thread pool.
#include "truth_discovery_reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/task_assignment.hpp"
#include "crowd/simulator.hpp"
#include "crowd/worker.hpp"
#include "metrics/ranking.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace crowdrank {
namespace {

/// Runs both loops on `votes` and checks they agree; returns the new
/// loop's result for further checks.
TruthDiscoveryResult expect_same_step1(const VoteBatch& votes,
                                       std::size_t object_count,
                                       std::size_t worker_count,
                                       const TruthDiscoveryConfig& config) {
  VoteIndex index;
  const TruthDiscoveryResult got =
      discover_truth(votes, object_count, worker_count, config, &index);
  VoteIndex want_index;
  const TruthDiscoveryResult want = discover_truth_reference(
      votes, object_count, worker_count, config, &want_index);
  EXPECT_EQ(step1_mismatch(got, index, want, want_index), "");
  return got;
}

/// One run_experiment-shaped round: a random truth, a fair task graph of
/// `l` tasks, HITs over the default pool, one simulated collection.
VoteBatch round_votes(std::size_t n, std::size_t l, WorkerPoolConfig crowd,
                      std::uint64_t seed) {
  const ExperimentConfig shape;
  Rng rng(seed);
  const auto perm = rng.permutation(n);
  const Ranking truth(std::vector<VertexId>(perm.begin(), perm.end()));
  const TaskAssignment ta = generate_task_assignment(n, l, rng);
  const std::vector<Edge> tasks(ta.graph.edges().begin(),
                                ta.graph.edges().end());
  const HitAssignment assignment(
      tasks, HitConfig{shape.comparisons_per_hit, shape.workers_per_task},
      shape.worker_pool_size, rng);
  const auto workers = sample_worker_pool(shape.worker_pool_size, crowd, rng);
  return SimulatedCrowd(truth, workers).collect(assignment, rng);
}

constexpr std::size_t kPool = ExperimentConfig{}.worker_pool_size;

/// A spanning path, r = 0.1 as run_experiment rounds it, and all pairs.
std::vector<std::size_t> budgets(std::size_t n) {
  const std::size_t all = n * (n - 1) / 2;
  const auto tenth = static_cast<std::size_t>(
      std::llround(0.1 * static_cast<double>(all)));
  return {n - 1, std::clamp(tenth, n - 1, all), all};
}

TEST(TruthDiscoveryReference, MatchesOnExperimentRounds) {
  std::size_t contested_passes = 0;
  const auto check = [&](std::size_t n, std::size_t l,
                         WorkerPoolConfig crowd, std::uint64_t seed) {
    SCOPED_TRACE(testing::Message()
                 << "n " << n << " l " << l << " dist "
                 << static_cast<int>(crowd.distribution) << " level "
                 << static_cast<int>(crowd.level) << " seed " << seed);
    const VoteBatch votes = round_votes(n, l, crowd, seed);
    const TruthDiscoveryResult got = expect_same_step1(votes, n, kPool, {});
    contested_passes += got.iterations - got.full_passes;
  };
  for (const std::size_t n : {4, 30, 100, 300, 1000}) {
    for (const std::size_t l : budgets(n)) {
      // All pairs at n = 1000 is 1.5M votes a round: one round only.
      if (n == 1000 && l == budgets(n).back()) {
        check(n, l, {QualityDistribution::Gaussian, QualityLevel::Medium}, 1);
        continue;
      }
      for (const auto dist :
           {QualityDistribution::Gaussian, QualityDistribution::Uniform}) {
        for (const auto level :
             {QualityLevel::High, QualityLevel::Medium, QualityLevel::Low}) {
          for (const std::uint64_t seed : {1, 2, 3}) {
            check(n, l, {dist, level}, seed);
          }
        }
      }
    }
  }
  EXPECT_GT(contested_passes, 0u);
}

TEST(TruthDiscoveryReference, MatchesWithoutWeightingAndUnderIterationCaps) {
  for (const std::size_t n : {30, 300}) {
    const VoteBatch votes = round_votes(
        n, budgets(n)[1], {QualityDistribution::Gaussian, QualityLevel::Low},
        7);
    TruthDiscoveryConfig plain;
    plain.use_quality_weighting = false;
    const TruthDiscoveryResult got = expect_same_step1(votes, n, kPool, plain);
    EXPECT_EQ(got.iterations, 1u);
    EXPECT_EQ(got.full_passes, 1u);
    for (const std::size_t cap : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " cap " << cap);
      TruthDiscoveryConfig capped;
      capped.max_iterations = cap;
      const TruthDiscoveryResult r =
          expect_same_step1(votes, n, kPool, capped);
      EXPECT_EQ(r.iterations, cap);
      EXPECT_EQ(r.full_passes, 1u);  // the second pass is a contested one
    }
  }
}

Vote vote(WorkerId k, VertexId i, VertexId j, bool prefers_i) {
  return Vote{k, i, j, prefers_i};
}

TEST(TruthDiscoveryReference, MatchesOnHandMadeBatches) {
  // Every task unanimous, in both orientations: no contested rows at all.
  VoteBatch unanimous;
  for (VertexId i = 0; i < 9; ++i) {
    for (WorkerId k = 0; k < 3; ++k) {
      unanimous.push_back(vote(k, i, i + 1, i % 2 == 0));
    }
  }
  EXPECT_EQ(expect_same_step1(unanimous, 10, 3, {}).contested_tasks, 0u);

  // Every task contested.
  VoteBatch contested;
  for (VertexId i = 0; i < 9; ++i) {
    contested.push_back(vote(0, i, i + 1, true));
    contested.push_back(vote(1, i + 1, i, true));
    contested.push_back(vote(2, i, i + 1, i % 3 == 0));
  }
  EXPECT_EQ(expect_same_step1(contested, 10, 3, {}).contested_tasks, 9u);

  // One-vote tasks next to contested ones.
  VoteBatch single;
  for (VertexId i = 0; i < 9; ++i) {
    single.push_back(vote(i % 4, i, i + 1, i % 2 == 1));
  }
  single.push_back(vote(1, 0, 1, true));
  single.push_back(vote(2, 3, 4, false));
  EXPECT_EQ(expect_same_step1(single, 10, 4, {}).contested_tasks, 2u);

  // One worker answering a task twice (an unhardened batch): once in both
  // directions, which contests the task alone, and once the same way.
  const VoteBatch twice{vote(0, 0, 1, true), vote(0, 1, 0, true),
                        vote(1, 1, 2, true), vote(1, 1, 2, true),
                        vote(2, 2, 3, false), vote(1, 0, 1, true)};
  EXPECT_EQ(expect_same_step1(twice, 4, 3, {}).contested_tasks, 1u);

  // A worker_count above every id used: idle workers keep quality 1.
  const TruthDiscoveryResult idle = expect_same_step1(contested, 10, 8, {});
  EXPECT_EQ(idle.worker_weight[7], 1.0);
}

/// Runs both loops under every iteration cap from 1 to `config`'s, so
/// every prefix of the pass sequence is pinned; returns the uncapped run.
TruthDiscoveryResult expect_same_prefixes(const VoteBatch& votes,
                                          std::size_t object_count,
                                          std::size_t worker_count,
                                          TruthDiscoveryConfig config) {
  const std::size_t cap = config.max_iterations;
  for (std::size_t k = 1; k < cap; ++k) {
    SCOPED_TRACE(testing::Message() << "cap " << k);
    config.max_iterations = k;
    expect_same_step1(votes, object_count, worker_count, config);
  }
  config.max_iterations = cap;
  return expect_same_step1(votes, object_count, worker_count, config);
}

TEST(TruthDiscoveryReference, ZeroFloorUnanimousOnlyWorkerForcesFullPasses) {
  // Worker 3 answers only unanimous tasks. With no deviation floor, every
  // pass that settles the unanimous truths leaves its Eq. 5 deviation at
  // 0, so its weight is chi2 / 0 = inf and the max normalization gives it
  // NaN and everyone else 0. The next pass runs over every row, and its
  // zero and NaN weights drop every truth to 0.5; the pass after that
  // must run over every row again to settle the unanimous truths.
  VoteBatch votes;
  for (VertexId i = 0; i < 12; ++i) {
    const bool split = i % 3 == 0;
    votes.push_back(vote(0, i, i + 1, true));
    votes.push_back(vote(1, i, i + 1, !split));
    votes.push_back(vote(split ? 2 : 3, i, i + 1, true));
  }
  TruthDiscoveryConfig config;
  config.deviation_floor = 0.0;
  const TruthDiscoveryResult r = expect_same_prefixes(votes, 13, 4, config);
  EXPECT_EQ(r.contested_tasks, 4u);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, config.max_iterations);
  EXPECT_EQ(r.full_passes, r.iterations);
}

TEST(TruthDiscoveryReference, ZeroFloorAlternatesFullAndContestedPasses) {
  // Worker 0 is always right. With no deviation floor its weight feeds on
  // itself until the others' weights round away against it: the contested
  // truths it votes on become exactly its votes, its deviation 0, and its
  // weight NaN. That pass's successor runs over every row, the one after
  // settles the unanimous truths again, and contested passes resume. A
  // tolerance of 1e-300 keeps the loop from stopping on the NaN state.
  Rng rng(1);
  VoteBatch votes;
  for (VertexId i = 0; i < 16; ++i) {
    for (WorkerId k = 0; k < 4; ++k) {
      votes.push_back(vote(k, i, i + 1, k == 0 || !rng.bernoulli(0.1 * k)));
    }
  }
  TruthDiscoveryConfig config;
  config.deviation_floor = 0.0;
  config.tolerance = 1e-300;
  const TruthDiscoveryResult r = expect_same_prefixes(votes, 17, 4, config);
  EXPECT_GT(r.contested_tasks, 0u);
  EXPECT_EQ(r.iterations, config.max_iterations);
  EXPECT_GT(r.full_passes, 2u);
  EXPECT_LT(r.full_passes, r.iterations / 2);
}

/// The pool regions step 1 opens on `votes` at 4 threads.
std::uint64_t pool_regions(const VoteBatch& votes, std::size_t n) {
  const std::size_t threads = thread_count();
  set_thread_count(4);
  trace::TraceSink sink;
  {
    const trace::ScopedSink scoped(&sink);
    discover_truth(votes, n, kPool);
  }
  set_thread_count(threads);
  return sink.metrics().counter("pool.regions").value();
}

TEST(TruthDiscoveryPool, OnlyPassesOfManyVotesOpenPoolRegions) {
  // A pass of fewer than 2^14 votes runs each loop as one inline chunk.
  // At n = 100 every pass is that small; at n = 400 the first pass runs
  // over all 23,940 votes.
  const WorkerPoolConfig crowd{QualityDistribution::Gaussian,
                               QualityLevel::Medium};
  const VoteBatch small = round_votes(100, budgets(100)[1], crowd, 1);
  const VoteBatch large = round_votes(400, budgets(400)[1], crowd, 1);
  ASSERT_LT(small.size(), std::size_t{1} << 14);
  ASSERT_GE(large.size(), std::size_t{1} << 14);
  EXPECT_EQ(pool_regions(small, 100), 0u);
  EXPECT_GT(pool_regions(large, 400), 0u);
}

}  // namespace
}  // namespace crowdrank
