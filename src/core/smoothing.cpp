#include "core/smoothing.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/trace.hpp"

namespace crowdrank {

double worker_sigma_from_quality(double quality) {
  const double q = std::clamp(quality, 1e-9, 1.0);
  return -std::log(q);
}

PreferenceGraph smooth_preferences(
    const PreferenceGraph& graph, const TruthDiscoveryResult& step1,
    std::span<const std::vector<WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng, SmoothingStats* stats) {
  CR_EXPECTS(assignment_workers.size() == step1.truths.size(),
             "need one worker list per discovered task");
  CR_EXPECTS(config.min_mass > 0.0 && config.min_mass <= config.max_mass &&
                 config.max_mass < 0.5,
             "smoothing masses must satisfy 0 < min <= max < 0.5");
  CR_EXPECTS(config.mode == SmoothingMode::ExpectedError || rng != nullptr,
             "SampledError smoothing needs an Rng");

  SmoothingStats local;
  local.in_nodes_before = graph.in_nodes().size();
  local.out_nodes_before = graph.out_nodes().size();

  // Per-orientation flip counters for the trace: how many 1-edges were
  // softened in the forward (x == 1) vs backward (x == 0) direction.
  metrics::Counter* trace_forward = trace::counter("smoothing.forward_ones");
  metrics::Counter* trace_backward =
      trace::counter("smoothing.backward_ones");
  metrics::Histogram* trace_mass = trace::histogram("smoothing.mass");

  // The smoothed graph carries exactly step 1's task pairs: each pair keeps
  // its stored weights unless one direction is a 1-edge.
  std::vector<WeightedEdge> edges;
  edges.reserve(2 * step1.truths.size());
  for (std::size_t t = 0; t < step1.truths.size(); ++t) {
    const TaskTruth& truth = step1.truths[t];
    const VertexId i = truth.task.first;
    const VertexId j = truth.task.second;
    double w_ij = graph.weight(i, j);
    double w_ji = graph.weight(j, i);
    // Identify 1-edges in either orientation: x == 1 means i -> j is a
    // 1-edge (j -> i absent); x == 0 the reverse.
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
        if (trace_forward != nullptr) trace_forward->add(1);
      } else {
        w_ji = 1.0 - mass;
        w_ij = mass;
        if (trace_backward != nullptr) trace_backward->add(1);
      }
      if (trace_mass != nullptr) trace_mass->observe(mass);
      ++local.one_edges_smoothed;
    }
    edges.push_back({i, j, w_ij});
    edges.push_back({j, i, w_ji});
  }
  PreferenceGraph smoothed(graph.vertex_count(), edges);

  local.strongly_connected_after = smoothed.is_strongly_connected();
  if (metrics::Counter* c = trace::counter("smoothing.one_edges_smoothed")) {
    c->add(local.one_edges_smoothed);
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return smoothed;
}

}  // namespace crowdrank
