#include "core/two_round.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/checkpoint.hpp"
#include "metrics/kendall.hpp"
#include "util/error.hpp"

namespace crowdrank {

std::vector<Edge> most_uncertain_pairs(const Matrix& closure,
                                       std::size_t count) {
  CR_EXPECTS(closure.is_square(), "closure matrix must be square");
  const std::size_t n = closure.rows();
  struct Scored {
    double certainty;
    Edge pair;
  };
  std::vector<Scored> scored;
  scored.reserve(n * (n - 1) / 2);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      scored.push_back(Scored{std::abs(closure(i, j) - 0.5), Edge{i, j}});
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.certainty != b.certainty) {
                return a.certainty < b.certainty;
              }
              return a.pair < b.pair;
            });
  std::vector<Edge> out;
  const std::size_t take = std::min(count, scored.size());
  out.reserve(take);
  for (std::size_t k = 0; k < take; ++k) {
    out.push_back(scored[k].pair);
  }
  return out;
}

TwoRoundResult run_two_round_experiment(const TwoRoundConfig& config) {
  CR_EXPECTS(config.round1_fraction > 0.0 && config.round1_fraction <= 1.0,
             "round-1 fraction must be in (0, 1]");
  const ExperimentConfig& base = config.base;
  CR_EXPECTS(base.object_count >= 2, "need at least two objects");
  CR_EXPECTS(base.workers_per_task <= base.worker_pool_size,
             "replication w must not exceed the pool size m");
  Rng rng(base.seed);

  const std::size_t n = base.object_count;
  const Ranking truth(
      [&] {
        auto perm = rng.permutation(n);
        return std::vector<VertexId>(perm.begin(), perm.end());
      }());

  const BudgetModel total_budget = BudgetModel::for_selection_ratio(
      n, base.selection_ratio, base.reward_per_comparison,
      base.workers_per_task);
  const std::size_t total_tasks = total_budget.unique_task_count();
  // Round 1 keeps at least the spanning minimum so the blind assignment
  // stays connected; round 2 gets the rest.
  const auto round1_tasks = std::max<std::size_t>(
      n - 1, static_cast<std::size_t>(std::llround(
                 config.round1_fraction * static_cast<double>(total_tasks))));
  const std::size_t round2_tasks =
      total_tasks > round1_tasks ? total_tasks - round1_tasks : 0;

  const auto workers =
      sample_worker_pool(base.worker_pool_size, base.worker_quality, rng);
  const SimulatedCrowd crowd(truth, workers);
  const HitConfig hit_config{base.comparisons_per_hit,
                             base.workers_per_task};

  // --- Round 1: blind fair assignment. ---
  const auto assignment1 = generate_task_assignment(n, round1_tasks, rng);
  const std::vector<Edge> tasks1(assignment1.graph.edges().begin(),
                                 assignment1.graph.edges().end());
  const HitAssignment hits1(tasks1, hit_config, base.worker_pool_size, rng);
  VoteBatch votes = crowd.collect(hits1, rng);

  std::size_t repeats = 0;
  if (round2_tasks > 0) {
    // Steps 1-3 on the round-1 batch (a cheap probe inference whose Step-4
    // result is discarded) score every pair's closure certainty.
    // The closure is copied at the Step-4 checkpoint, before SAPS consumes
    // it.
    ClosureCapture probe(base.inference.control);
    InferenceConfig probe_config = base.inference;
    probe_config.saps.iterations = 1;  // Step 4 output unused
    probe_config.saps.restarts = 1;
    probe_config.control = &probe;
    const InferenceEngine probe_engine(probe_config);
    Rng probe_rng(base.seed + 101);
    probe_engine.infer(votes, n, base.worker_pool_size, hits1, probe_rng);

    // --- Round 2: the most uncertain pairs. ---
    const std::vector<Edge> tasks2 =
        most_uncertain_pairs(probe.closure(), round2_tasks);
    const std::set<Edge> round1_set(tasks1.begin(), tasks1.end());
    for (const Edge& e : tasks2) {
      if (round1_set.contains(e)) ++repeats;
    }
    const HitAssignment hits2(tasks2, hit_config, base.worker_pool_size,
                              rng);
    const VoteBatch votes2 = crowd.collect(hits2, rng);
    votes.insert(votes.end(), votes2.begin(), votes2.end());
  }

  // Final inference over the merged batch (votes-only overload: per-task
  // worker lists derive from the union of both rounds).
  const InferenceEngine engine(base.inference);
  Rng infer_rng(base.seed + 202);
  InferenceResult inference =
      engine.infer(votes, n, base.worker_pool_size, infer_rng);

  TwoRoundResult result{truth,        std::move(inference), 0.0,
                        round1_tasks, round2_tasks,         repeats,
                        total_budget.total_cost()};
  result.accuracy = ranking_accuracy(truth, result.inference.ranking);
  return result;
}

}  // namespace crowdrank
