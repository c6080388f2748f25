#include "smoothing_reference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/math.hpp"

namespace crowdrank {

std::vector<std::vector<WorkerId>> assigned_workers_reference(
    const VoteIndex& index, const HitAssignment& assignment) {
  std::vector<std::pair<Edge, std::size_t>> listings;
  listings.reserve(assignment.tasks().size());
  for (std::size_t t = 0; t < assignment.tasks().size(); ++t) {
    const Edge& e = assignment.tasks()[t];
    listings.emplace_back(Edge::canonical(e.first, e.second), t);
  }
  std::sort(listings.begin(), listings.end());
  std::vector<std::vector<WorkerId>> workers;
  workers.reserve(index.tasks.size());
  for (const Edge& task : index.tasks) {
    const auto it = std::lower_bound(listings.begin(), listings.end(),
                                     std::pair{task, std::size_t{0}});
    CR_EXPECTS(it != listings.end() && it->first == task,
               "votes reference a task outside the assignment");
    const auto listed = assignment.workers_for_task(it->second);
    workers.emplace_back(listed.begin(), listed.end());
  }
  return workers;
}

std::vector<std::vector<WorkerId>> voting_workers_reference(
    const VoteIndex& index) {
  std::vector<std::vector<WorkerId>> workers(index.tasks.size());
  for (std::size_t t = 0; t < index.tasks.size(); ++t) {
    const auto votes = index.votes_of_task(t);
    workers[t].reserve(votes.size());
    for (const VoteIndex::TaskVote& v : votes) {
      if (std::find(workers[t].begin(), workers[t].end(), v.worker) ==
          workers[t].end()) {
        workers[t].push_back(v.worker);
      }
    }
  }
  return workers;
}

SmoothingReference smooth_preferences_reference(
    std::size_t object_count, const TruthDiscoveryResult& step1,
    std::span<const std::vector<WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng) {
  const PreferenceGraph graph = step1.to_preference_graph(object_count);
  CR_EXPECTS(assignment_workers.size() == step1.truths.size(),
             "need one worker list per discovered task");
  CR_EXPECTS(config.min_mass > 0.0 && config.min_mass <= config.max_mass &&
                 config.max_mass < 0.5,
             "smoothing masses must satisfy 0 < min <= max < 0.5");
  CR_EXPECTS(config.mode == SmoothingMode::ExpectedError || rng != nullptr,
             "SampledError smoothing needs an Rng");

  SmoothingStats stats;
  stats.in_nodes_before = graph.in_nodes().size();
  stats.out_nodes_before = graph.out_nodes().size();

  std::vector<WeightedEdge> edges;
  edges.reserve(2 * step1.truths.size());
  for (std::size_t t = 0; t < step1.truths.size(); ++t) {
    const TaskTruth& truth = step1.truths[t];
    const VertexId i = truth.task.first;
    const VertexId j = truth.task.second;
    double w_ij = graph.weight(i, j);
    double w_ji = graph.weight(j, i);
    const bool forward_one = w_ij == 1.0;
    const bool backward_one = w_ji == 1.0;
    if (forward_one || backward_one) {
      const auto& workers = assignment_workers[t];
      CR_EXPECTS(!workers.empty(), "a crowdsourced task must have workers");
      double err_sum = 0.0;
      for (const WorkerId k : workers) {
        CR_EXPECTS(k < step1.worker_quality.size(),
                   "worker id outside the quality vector");
        const double sigma =
            worker_sigma_from_quality(step1.worker_quality[k]);
        const double err = config.mode == SmoothingMode::ExpectedError
                               ? math::expected_abs_normal(sigma)
                               : std::abs(rng->normal(0.0, sigma));
        err_sum += err;
      }
      const double mass = std::clamp(
          err_sum / static_cast<double>(workers.size()), config.min_mass,
          config.max_mass);
      if (forward_one) {
        w_ij = 1.0 - mass;
        w_ji = mass;
      } else {
        w_ji = 1.0 - mass;
        w_ij = mass;
      }
      ++stats.one_edges_smoothed;
    }
    edges.push_back({i, j, w_ij});
    edges.push_back({j, i, w_ji});
  }
  PreferenceGraph smoothed(graph.vertex_count(), edges);
  stats.strongly_connected_after = smoothed.is_strongly_connected();
  return {std::move(smoothed), stats, graph.one_edges().size()};
}

}  // namespace crowdrank
