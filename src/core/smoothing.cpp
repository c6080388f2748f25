#include "core/smoothing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rows.hpp"
#include "util/trace.hpp"

namespace crowdrank {

double worker_sigma_from_quality(double quality) {
  const double q = std::clamp(quality, 1e-9, 1.0);
  return -std::log(q);
}

TaskWorkers assigned_workers(const VoteIndex& index,
                             const HitAssignment& assignment) {
  // The listings and the step-1 tasks, each bucketed by first object with
  // a stable counting sort, so a bucket keeps listing (or task) order.
  // Walking the buckets in order, a scratch row indexed by second object
  // holds the first listing of each task of the current bucket (an entry
  // from an earlier bucket is stale). O(n + listings + tasks).
  const std::vector<Edge>& listed = assignment.tasks();
  const auto listing = [&](std::size_t p) {
    return Edge::canonical(listed[p].first, listed[p].second);
  };
  std::size_t n = 0;
  for (const Edge& task : index.tasks) {
    n = std::max<std::size_t>(n, task.second + 1);
  }
  // Listings naming an object >= n match no task: they go to row n.
  std::vector<std::size_t> listing_offsets;
  std::vector<std::size_t> by_first_listing;
  fill_rows(
      n + 1, listed.size(),
      [&](std::size_t p) {
        const Edge e = listing(p);
        return e.second < n ? std::size_t{e.first} : n;
      },
      [](std::size_t p) { return p; }, listing_offsets, by_first_listing);
  std::vector<std::size_t> task_offsets;
  std::vector<std::size_t> by_first_task;
  fill_rows(
      n, index.tasks.size(),
      [&](std::size_t t) { return std::size_t{index.tasks[t].first}; },
      [](std::size_t t) { return t; }, task_offsets, by_first_task);

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> first_listing(n, kNone);
  std::vector<std::size_t> listing_of(index.tasks.size());
  for (std::size_t first = 0; first < n; ++first) {
    for (std::size_t r = listing_offsets[first];
         r < listing_offsets[first + 1]; ++r) {
      const std::size_t p = by_first_listing[r];
      std::size_t& slot = first_listing[listing(p).second];
      if (slot == kNone || listing(slot).first != first) {
        slot = p;
      }
    }
    for (std::size_t r = task_offsets[first]; r < task_offsets[first + 1];
         ++r) {
      const std::size_t t = by_first_task[r];
      const std::size_t slot = first_listing[index.tasks[t].second];
      CR_EXPECTS(slot != kNone && listing(slot).first == first,
                 "votes reference a task outside the assignment");
      listing_of[t] = slot;
    }
  }

  TaskWorkers rows;
  rows.offsets.reserve(index.tasks.size() + 1);
  rows.workers.reserve(index.task_votes.size());
  for (const std::size_t p : listing_of) {
    for (const WorkerId k : assignment.workers_for_task(p)) {
      CR_EXPECTS(k <= std::numeric_limits<std::uint32_t>::max(),
                 "assigned worker id does not fit in 32 bits");
      rows.workers.push_back(static_cast<std::uint32_t>(k));
    }
    rows.offsets.push_back(rows.workers.size());
  }
  return rows;
}

TaskWorkers voting_workers(const VoteIndex& index) {
  TaskWorkers rows;
  rows.offsets.reserve(index.tasks.size() + 1);
  rows.workers.reserve(index.task_votes.size());
  for (std::size_t t = 0; t < index.tasks.size(); ++t) {
    const auto row_begin =
        rows.workers.begin() + static_cast<std::ptrdiff_t>(rows.offsets[t]);
    for (const VoteIndex::TaskVote& v : index.votes_of_task(t)) {
      if (std::find(row_begin, rows.workers.end(), v.worker) ==
          rows.workers.end()) {
        rows.workers.push_back(v.worker);
      }
    }
    rows.offsets.push_back(rows.workers.size());
  }
  return rows;
}

PreferenceGraph smooth_preferences(std::size_t object_count,
                                   const TruthDiscoveryResult& step1,
                                   const TaskWorkers& task_workers,
                                   const SmoothingConfig& config, Rng* rng,
                                   SmoothingStats* stats) {
  CR_EXPECTS(task_workers.task_count() == step1.truths.size(),
             "need one worker row per discovered task");
  CR_EXPECTS(config.min_mass > 0.0 && config.min_mass <= config.max_mass &&
                 config.max_mass < 0.5,
             "smoothing masses must satisfy 0 < min <= max < 0.5");
  CR_EXPECTS(config.mode == SmoothingMode::ExpectedError || rng != nullptr,
             "SampledError smoothing needs an Rng");

  SmoothingStats local;

  // Per-orientation flip counters for the trace: how many 1-edges were
  // softened in the forward (x == 1) vs backward (x == 0) direction.
  metrics::Counter* trace_forward = trace::counter("smoothing.forward_ones");
  metrics::Counter* trace_backward =
      trace::counter("smoothing.backward_ones");
  metrics::Histogram* trace_mass = trace::histogram("smoothing.mass");

  const bool expected_error = config.mode == SmoothingMode::ExpectedError;
  // Filled the first time a 1-edge meets worker k: err_k for
  // ExpectedError, sigma_k for SampledError. Negative means not yet.
  std::vector<double> per_worker(step1.worker_quality.size(), -1.0);
  // Which directions of the direct graph touch each vertex.
  constexpr unsigned char kHasIn = 1;
  constexpr unsigned char kHasOut = 2;
  std::vector<unsigned char> direct_sides(object_count, 0);

  // The smoothed graph carries exactly step 1's task pairs: each pair keeps
  // its direct weights unless one direction is a 1-edge.
  std::vector<WeightedEdge> edges;
  edges.reserve(2 * step1.truths.size());
  for (std::size_t t = 0; t < step1.truths.size(); ++t) {
    const TaskTruth& truth = step1.truths[t];
    const VertexId i = truth.task.first;
    const VertexId j = truth.task.second;
    CR_EXPECTS(i < object_count && j < object_count,
               "truth references an out-of-range object");
    CR_EXPECTS(truth.x >= 0.0 && truth.x <= 1.0,
               "preference weight must lie in [0, 1]");
    // The direct weights, exactly as to_preference_graph stores them.
    double w_ij = truth.x;
    double w_ji = 1.0 - truth.x;
    if (w_ij > 0.0) {
      direct_sides[i] |= kHasOut;
      direct_sides[j] |= kHasIn;
    }
    if (w_ji > 0.0) {
      direct_sides[j] |= kHasOut;
      direct_sides[i] |= kHasIn;
    }
    // Identify 1-edges in either orientation: x == 1 means i -> j is a
    // 1-edge (j -> i absent); 1 - x == 1 the reverse, which also holds
    // for 0 < x <= 2^-54, where i -> j stays present.
    const bool forward_one = w_ij == 1.0;
    const bool backward_one = w_ji == 1.0;
    if (forward_one || backward_one) {
      const std::span<const std::uint32_t> workers = task_workers.of_task(t);
      CR_EXPECTS(!workers.empty(), "a crowdsourced task must have workers");
      double err_sum = 0.0;
      for (const WorkerId k : workers) {
        CR_EXPECTS(k < per_worker.size(),
                   "worker id outside the quality vector");
        double& known = per_worker[k];
        if (known < 0.0) {
          const double sigma =
              worker_sigma_from_quality(step1.worker_quality[k]);
          known = expected_error ? math::expected_abs_normal(sigma) : sigma;
        }
        err_sum += expected_error ? known : std::abs(rng->normal(0.0, known));
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
  PreferenceGraph smoothed(object_count, edges);

  for (const unsigned char sides : direct_sides) {
    local.in_nodes_before += sides == kHasIn ? 1 : 0;
    local.out_nodes_before += sides == kHasOut ? 1 : 0;
  }
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
