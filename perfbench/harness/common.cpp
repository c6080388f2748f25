#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

using namespace crowdrank;

void Report::fail(const std::string& why) {
  ++failed;
  if (violations.size() < 8) {
    violations.push_back(why);
  }
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = workload_seed * 0x9E3779B97F4A7C15ULL +
                    stream * 0xD1B54A32D192ED03ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t task_count(std::size_t n, double ratio) {
  return BudgetModel::for_selection_ratio(n, ratio, 0.025, kWorkersPerTask)
      .unique_task_count();
}

CrowdRound simulate_round(std::uint64_t seed, std::size_t n,
                          std::size_t tasks) {
  Rng rng(seed);
  CrowdRound round;
  {
    const AllocPause input;
    const auto perm = rng.permutation(n);
    round.truth = Ranking(std::vector<VertexId>(perm.begin(), perm.end()));
  }

  round.plan_start = Clock::now();
  const TaskAssignment plan = generate_task_assignment(n, tasks, rng);
  round.assigned = Clock::now();
  const std::vector<Edge> edges(plan.graph.edges().begin(),
                                plan.graph.edges().end());
  const HitAssignment hits(edges, {kComparisonsPerHit, kWorkersPerTask},
                           kWorkerPool, rng);
  round.planned = Clock::now();

  const AllocPause input;
  const auto workers = sample_worker_pool(
      kWorkerPool, {QualityDistribution::Gaussian, QualityLevel::Medium}, rng);
  round.votes = SimulatedCrowd(round.truth, workers).collect(hits, rng);
  return round;
}

std::string permutation_error(const service::PartialRanking& r,
                              std::size_t n) {
  if (r.order.size() + r.excluded.size() != n) {
    return "ranking covers " +
           std::to_string(r.order.size() + r.excluded.size()) + " of " +
           std::to_string(n) + " objects";
  }
  std::vector<bool> seen(n, false);
  for (const auto* part : {&r.order, &r.excluded}) {
    for (const VertexId v : *part) {
      if (v >= n || seen[v]) {
        return "ranking repeats or invents object " + std::to_string(v);
      }
      seen[v] = true;
    }
  }
  return {};
}

double accuracy_of(const Ranking& truth, const service::PartialRanking& r) {
  std::vector<VertexId> order = r.order;
  order.insert(order.end(), r.excluded.begin(), r.excluded.end());
  return ranking_accuracy(truth, Ranking(std::move(order)));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
