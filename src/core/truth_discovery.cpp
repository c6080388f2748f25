#include "core/truth_discovery.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace crowdrank {

namespace {

/// Canonicalized vote: x^k in {0,1} w.r.t. the canonical (first < second)
/// orientation of its task.
struct FlatVote {
  std::size_t task_index;
  WorkerId worker;
  double x;  // 1.0 if the worker prefers task.first, else 0.0
};

struct GroupedVotes {
  std::vector<Edge> tasks;          // canonical, in first-seen order
  std::vector<FlatVote> votes;      // all votes, canonicalized
  std::vector<std::vector<std::size_t>> votes_by_task;
  std::vector<std::vector<std::size_t>> votes_by_worker;
};

GroupedVotes group_votes(const VoteBatch& votes, std::size_t object_count,
                         std::size_t worker_count) {
  CR_EXPECTS(!votes.empty(), "truth discovery needs at least one vote");
  GroupedVotes g;
  std::map<Edge, std::size_t> task_index;
  g.votes_by_worker.resize(worker_count);
  for (const Vote& v : votes) {
    CR_EXPECTS(v.i < object_count && v.j < object_count,
               "vote references an out-of-range object");
    CR_EXPECTS(v.i != v.j, "vote compares an object with itself");
    CR_EXPECTS(v.worker < worker_count,
               "vote references an out-of-range worker");
    const Edge task = Edge::canonical(v.i, v.j);
    auto [it, inserted] = task_index.try_emplace(task, g.tasks.size());
    if (inserted) {
      g.tasks.push_back(task);
      g.votes_by_task.emplace_back();
    }
    const std::size_t t = it->second;
    // prefers_i refers to v.i; flip when canonicalization swapped the pair.
    const bool prefers_first = (v.i == task.first) ? v.prefers_i
                                                   : !v.prefers_i;
    const std::size_t vote_id = g.votes.size();
    g.votes.push_back(FlatVote{t, v.worker, prefers_first ? 1.0 : 0.0});
    g.votes_by_task[t].push_back(vote_id);
    g.votes_by_worker[v.worker].push_back(vote_id);
  }
  return g;
}

/// Chunk sizes for the per-task / per-worker parallel loops. Fixed (thread
/// count independent) so reduction chunk boundaries never move; each x[t] /
/// q[k] is written by exactly one chunk and the only reductions are exact
/// maxima, so iteration results are bitwise-identical at any thread count.
constexpr std::size_t kTaskGrain = 512;
constexpr std::size_t kWorkerGrain = 16;

}  // namespace

TruthDiscoveryResult discover_truth(const VoteBatch& votes,
                                    std::size_t object_count,
                                    std::size_t worker_count,
                                    const TruthDiscoveryConfig& config) {
  CR_EXPECTS(config.max_iterations >= 1, "need at least one iteration");
  CR_EXPECTS(config.tolerance > 0.0, "tolerance must be positive");
  CR_EXPECTS(config.alpha > 0.0 && config.alpha < 1.0,
             "alpha must be in (0, 1)");
  const GroupedVotes g = group_votes(votes, object_count, worker_count);
  const std::size_t num_tasks = g.tasks.size();

  std::vector<double> x(num_tasks, 0.5);
  std::vector<double> q(worker_count, 1.0);  // equal initial quality

  // Chi-squared scale per worker depends only on their task count;
  // precompute once.
  std::vector<double> chi2_scale(worker_count, 0.0);
  for (WorkerId k = 0; k < worker_count; ++k) {
    const std::size_t dof = g.votes_by_worker[k].size();
    if (dof > 0) {
      chi2_scale[k] = math::chi_squared_quantile(config.alpha / 2.0,
                                                 static_cast<double>(dof));
    }
  }

  TruthDiscoveryResult result;

  // Trace handles, resolved once. Instrumentation below only *reads* the
  // iteration state (delta, q spread) — it never feeds back into Eq. 4/5.
  metrics::Counter* trace_votes = trace::counter("truth_discovery.votes");
  metrics::Counter* trace_tasks = trace::counter("truth_discovery.tasks");
  metrics::Counter* trace_iters =
      trace::counter("truth_discovery.iterations");
  metrics::Series* trace_delta = trace::series("truth_discovery.delta");
  metrics::Series* trace_spread =
      trace::series("truth_discovery.quality_spread");
  // Each handle is guarded on its own (see trace::counter).
  if (trace_votes != nullptr) trace_votes->add(g.votes.size());
  if (trace_tasks != nullptr) trace_tasks->add(num_tasks);

  const std::size_t iteration_cap =
      config.use_quality_weighting ? config.max_iterations : 1;
  std::size_t iter = 0;
  bool converged = false;
  while (iter < iteration_cap && !converged) {
    ++iter;
    double max_change = 0.0;

    // E-step analog (Eq. 4): quality-weighted average per task. Tasks are
    // independent, so the loop fans out over the pool; the convergence
    // gauge is an exact max reduction.
    max_change = parallel_reduce(
        std::size_t{0}, num_tasks, kTaskGrain, max_change,
        [&](std::size_t t0, std::size_t t1) {
          double local = 0.0;
          for (std::size_t t = t0; t < t1; ++t) {
            double num = 0.0;
            double den = 0.0;
            for (const std::size_t vid : g.votes_by_task[t]) {
              const FlatVote& v = g.votes[vid];
              num += v.x * q[v.worker];
              den += q[v.worker];
            }
            const double next = den > 0.0 ? num / den : 0.5;
            local = std::max(local, std::abs(next - x[t]));
            x[t] = next;
          }
          return local;
        },
        [](double a, double b) { return std::max(a, b); });

    if (!config.use_quality_weighting) {
      // Plain averaging: one E-step with unit weights, no M-step.
      converged = true;
      if (trace_iters != nullptr) {
        trace_iters->add(1);
        trace::push_series(trace_delta, static_cast<double>(iter),
                           max_change);
      }
      break;
    }

    // M-step analog (Eq. 5): inverse total squared deviation, chi2-scaled.
    // Workers are independent; max_raw is again an exact max reduction.
    std::vector<double> raw(worker_count, 0.0);
    const double max_raw = parallel_reduce(
        std::size_t{0}, static_cast<std::size_t>(worker_count), kWorkerGrain,
        0.0,
        [&](std::size_t k0, std::size_t k1) {
          double local = 0.0;
          for (std::size_t k = k0; k < k1; ++k) {
            if (g.votes_by_worker[k].empty()) continue;
            double dev = config.deviation_floor *
                         static_cast<double>(g.votes_by_worker[k].size());
            for (const std::size_t vid : g.votes_by_worker[k]) {
              const FlatVote& v = g.votes[vid];
              const double d = v.x - x[v.task_index];
              dev += d * d;
            }
            raw[k] = chi2_scale[k] / dev;
            local = std::max(local, raw[k]);
          }
          return local;
        },
        [](double a, double b) { return std::max(a, b); });
    // Max-normalize into [0,1]; workers with no votes keep quality 1 (the
    // neutral prior) — they never enter Eq. 4 anyway.
    max_change = parallel_reduce(
        std::size_t{0}, static_cast<std::size_t>(worker_count), kWorkerGrain,
        max_change,
        [&](std::size_t k0, std::size_t k1) {
          double local = 0.0;
          for (std::size_t k = k0; k < k1; ++k) {
            const double next = g.votes_by_worker[k].empty()
                                    ? 1.0
                                    : (max_raw > 0.0 ? raw[k] / max_raw : 1.0);
            local = std::max(local, std::abs(next - q[k]));
            q[k] = next;
          }
          return local;
        },
        [](double a, double b) { return std::max(a, b); });

    converged = max_change < config.tolerance;

    if (trace_iters != nullptr) {
      trace_iters->add(1);
      // Convergence series, keyed by iteration number: the Eq. 4/5 delta
      // and the spread (max - min) of the normalized worker weights.
      trace::push_series(trace_delta, static_cast<double>(iter), max_change);
      const auto [q_min, q_max] = std::minmax_element(q.begin(), q.end());
      trace::push_series(trace_spread, static_cast<double>(iter),
                         *q_max - *q_min);
    }
  }

  result.truths.reserve(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    result.truths.push_back(
        TaskTruth{g.tasks[t], math::clamp01(x[t]), g.votes_by_task[t].size()});
  }
  // Calibrated quality for Step 2: sigma_hat_k is the empirical RMS
  // deviation of the worker's votes from the final truths; q = exp(-sigma)
  // inverts §V-B's sigma_k = -log(q_k).
  result.worker_quality.assign(worker_count, 1.0);
  parallel_for(0, worker_count, kWorkerGrain,
               [&](std::size_t k0, std::size_t k1) {
                 for (std::size_t k = k0; k < k1; ++k) {
                   if (g.votes_by_worker[k].empty()) continue;
                   double dev = 0.0;
                   for (const std::size_t vid : g.votes_by_worker[k]) {
                     const FlatVote& v = g.votes[vid];
                     const double d = v.x - x[v.task_index];
                     dev += d * d;
                   }
                   const double msd =
                       dev / static_cast<double>(g.votes_by_worker[k].size());
                   result.worker_quality[k] = std::exp(-std::sqrt(msd));
                 }
               });
  result.worker_weight = std::move(q);
  result.iterations = iter;
  result.converged = converged;
  return result;
}

PreferenceGraph TruthDiscoveryResult::to_preference_graph(
    std::size_t n) const {
  std::vector<WeightedEdge> edges;
  edges.reserve(2 * truths.size());
  for (const TaskTruth& t : truths) {
    CR_EXPECTS(t.task.first < n && t.task.second < n,
               "truth references an out-of-range object");
    edges.push_back({t.task.first, t.task.second, t.x});
    edges.push_back({t.task.second, t.task.first, 1.0 - t.x});
  }
  return PreferenceGraph(n, edges);
}

std::vector<TaskTruth> majority_vote_truth(const VoteBatch& votes,
                                           std::size_t object_count) {
  const GroupedVotes g = group_votes(votes, object_count,
                                     [&] {
                                       WorkerId max_worker = 0;
                                       for (const Vote& v : votes) {
                                         max_worker =
                                             std::max(max_worker, v.worker);
                                       }
                                       return max_worker + 1;
                                     }());
  std::vector<TaskTruth> out;
  out.reserve(g.tasks.size());
  for (std::size_t t = 0; t < g.tasks.size(); ++t) {
    double sum = 0.0;
    for (const std::size_t vid : g.votes_by_task[t]) {
      sum += g.votes[vid].x;
    }
    const double x = sum / static_cast<double>(g.votes_by_task[t].size());
    out.push_back(TaskTruth{g.tasks[t], x, g.votes_by_task[t].size()});
  }
  return out;
}

}  // namespace crowdrank
