#include "core/truth_discovery.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rows.hpp"
#include "util/trace.hpp"

namespace crowdrank {

namespace {

/// Chunk sizes for the per-task / per-worker parallel loops. Fixed (thread
/// count independent) so reduction chunk boundaries never move; each x[t] /
/// q[k] is written by exactly one chunk and the only reductions are exact
/// maxima, so iteration results are bitwise-identical at any thread count
/// and under any chunking.
constexpr std::size_t kTaskGrain = 512;
constexpr std::size_t kWorkerGrain = 16;

/// Vote count from which a pass's loops run on the pool: below ~2^14 votes
/// a pool round trip costs more than the pass itself.
constexpr std::size_t kPoolVotes = std::size_t{1} << 14;

/// The rows of the tasks whose votes disagree: task row c is the row of
/// task `tasks[c]` (dense ids in task order), and worker row k lists
/// worker k's votes on them, each naming its task's dense id. Both keep
/// batch order.
struct ContestedRows {
  std::vector<std::size_t> tasks;
  VoteRows rows;
};

/// Checks every vote in batch order and groups the batch; `contested`
/// (optional) receives the contested rows. Throws when `votes` is empty
/// or a vote names an out-of-range object or worker or compares an
/// object with itself, and when a worker id may not fit in 32 bits.
VoteIndex index_votes(const VoteBatch& votes, std::size_t object_count,
                      std::size_t worker_count,
                      ContestedRows* contested = nullptr) {
  CR_EXPECTS(!votes.empty(), "truth discovery needs at least one vote");
  CR_EXPECTS(worker_count <= std::size_t{1} << 32,
             "truth discovery takes at most 2^32 workers");
  for (const Vote& v : votes) {
    CR_EXPECTS(v.i < object_count && v.j < object_count,
               "vote references an out-of-range object");
    CR_EXPECTS(v.i != v.j, "vote compares an object with itself");
    CR_EXPECTS(v.worker < worker_count,
               "vote references an out-of-range worker");
  }
  const std::size_t vote_count = votes.size();
  const auto first_of = [&](std::size_t vid) {
    return std::min(votes[vid].i, votes[vid].j);
  };
  const auto second_of = [&](std::size_t vid) {
    return std::max(votes[vid].i, votes[vid].j);
  };

  // Tasks in first-seen order: vote_task[vid] is the id of vid's task,
  // and a vote that opens the next id names that task.
  std::vector<std::uint32_t> vote_task;
  VoteIndex index;
  index.tasks.reserve(
      group_pairs(object_count, vote_count, first_of, second_of, vote_task));
  for (std::size_t vid = 0; vid < vote_count; ++vid) {
    if (vote_task[vid] == index.tasks.size()) {
      index.tasks.push_back({first_of(vid), second_of(vid)});
    }
  }

  // Rows by task and by worker, in batch order. x^k is 1 when the worker
  // prefers the task's first (smaller) object.
  const auto x_of = [&](std::size_t vid) {
    return votes[vid].prefers_i == (votes[vid].i < votes[vid].j) ? 1.0f
                                                                 : 0.0f;
  };
  const auto task_of = [&](std::size_t vid) { return vote_task[vid]; };
  const auto worker_of = [&](std::size_t vid) { return votes[vid].worker; };
  const auto seen_from_task = [&](std::size_t vid) {
    return VoteIndex::TaskVote{static_cast<std::uint32_t>(votes[vid].worker),
                               x_of(vid)};
  };
  const auto seen_from_worker = [&](std::size_t vid) {
    return VoteIndex::WorkerVote{vote_task[vid], x_of(vid)};
  };
  fill_rows(index.tasks.size(), vote_count, task_of, seen_from_task,
            index.task_offsets, index.task_votes);
  fill_rows(worker_count, vote_count, worker_of, seen_from_worker,
            index.worker_offsets, index.worker_votes);
  if (contested == nullptr) {
    return index;
  }

  // Contested rows, copied out of the full rows so they keep batch order.
  // `dense` reuses vote_task's storage: the dense id of each task, or kNone.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t>& dense = vote_task;
  dense.assign(index.tasks.size(), kNone);
  std::size_t contested_votes = 0;
  for (std::size_t t = 0; t < index.tasks.size(); ++t) {
    const auto row = index.votes_of_task(t);
    if (std::ranges::any_of(row, [&](const VoteIndex::TaskVote& v) {
          return v.x != row.front().x;
        })) {
      dense[t] = static_cast<std::uint32_t>(contested->tasks.size());
      contested->tasks.push_back(t);
      contested_votes += row.size();
    }
  }
  VoteRows& rows = contested->rows;
  rows.task_offsets.reserve(contested->tasks.size() + 1);
  rows.task_offsets.push_back(0);
  rows.task_votes.reserve(contested_votes);
  for (const std::size_t t : contested->tasks) {
    const auto row = index.votes_of_task(t);
    rows.task_votes.insert(rows.task_votes.end(), row.begin(), row.end());
    rows.task_offsets.push_back(rows.task_votes.size());
  }
  rows.worker_offsets.reserve(worker_count + 1);
  rows.worker_offsets.push_back(0);
  rows.worker_votes.reserve(contested_votes);
  for (WorkerId k = 0; k < worker_count; ++k) {
    for (const VoteIndex::WorkerVote& v : index.votes_of_worker(k)) {
      if (dense[v.task] != kNone) {
        rows.worker_votes.push_back({dense[v.task], v.x});
      }
    }
    rows.worker_offsets.push_back(rows.worker_votes.size());
  }
  return index;
}

/// Truths over the rows of one pass: every task, or the contested ones.
struct RowView {
  const VoteRows& rows;
  std::span<double> x;  ///< one truth per task row

  /// The grain of a loop over `count` rows of this pass: `pool_grain`
  /// when the pass holds kPoolVotes votes or more, else one chunk, which
  /// runs inline.
  std::size_t grain(std::size_t count, std::size_t pool_grain) const {
    return rows.task_votes.size() >= kPoolVotes
               ? pool_grain
               : std::max<std::size_t>(count, 1);
  }
};

/// Eq. 4 over every task row of `view`: each truth becomes its votes'
/// quality-weighted mean (0.5 when their weights sum to 0). Returns the
/// largest |change|. Tasks are independent, so the rows fan out over the
/// pool; the max reduction is exact.
double e_step(const RowView& view, std::span<const double> q) {
  return parallel_reduce(
      std::size_t{0}, view.x.size(), view.grain(view.x.size(), kTaskGrain),
      0.0,
      [&](std::size_t t0, std::size_t t1) {
        double local = 0.0;
        for (std::size_t t = t0; t < t1; ++t) {
          double num = 0.0;
          double den = 0.0;
          for (const VoteRows::TaskVote& v : view.rows.votes_of_task(t)) {
            num += v.x * q[v.worker];
            den += q[v.worker];
          }
          const double next = den > 0.0 ? num / den : 0.5;
          local = std::max(local, std::abs(next - view.x[t]));
          view.x[t] = next;
        }
        return local;
      },
      [](double a, double b) { return std::max(a, b); });
}

/// `dev` plus the squared deviation of worker k's votes in `view` from
/// their truths, summed in row order.
double add_deviation(const RowView& view, WorkerId k, double dev) {
  for (const VoteRows::WorkerVote& v : view.rows.votes_of_worker(k)) {
    const double d = v.x - view.x[v.task];
    dev += d * d;
  }
  return dev;
}

}  // namespace

TruthDiscoveryResult discover_truth(const VoteBatch& votes,
                                    std::size_t object_count,
                                    std::size_t worker_count,
                                    const TruthDiscoveryConfig& config,
                                    VoteIndex* index) {
  CR_EXPECTS(config.max_iterations >= 1, "need at least one iteration");
  CR_EXPECTS(config.tolerance > 0.0, "tolerance must be positive");
  CR_EXPECTS(config.alpha > 0.0 && config.alpha < 1.0,
             "alpha must be in (0, 1)");
  VoteIndex own_index;
  VoteIndex& g = index != nullptr ? *index : own_index;
  ContestedRows split;
  g = index_votes(votes, object_count, worker_count, &split);
  const std::size_t num_tasks = g.tasks.size();

  std::vector<double> x(num_tasks, 0.5);
  std::vector<double> x_contested(split.tasks.size());
  std::vector<double> q(worker_count, 1.0);  // equal initial quality
  std::vector<double> raw(worker_count, 0.0);

  // Chi-squared scale and deviation floor per worker depend only on their
  // vote count; precompute once.
  std::vector<double> chi2_scale(worker_count, 0.0);
  std::vector<double> floor_dev(worker_count, 0.0);
  for (WorkerId k = 0; k < worker_count; ++k) {
    const std::size_t dof = g.votes_of_worker(k).size();
    if (dof > 0) {
      chi2_scale[k] = math::chi_squared_quantile(config.alpha / 2.0,
                                                 static_cast<double>(dof));
      floor_dev[k] = config.deviation_floor * static_cast<double>(dof);
    }
  }

  TruthDiscoveryResult result;
  result.contested_tasks = split.tasks.size();

  // Trace handles, resolved once. Instrumentation below only *reads* the
  // iteration state (delta, q spread) — it never feeds back into Eq. 4/5.
  metrics::Counter* trace_votes = trace::counter("truth_discovery.votes");
  metrics::Counter* trace_tasks = trace::counter("truth_discovery.tasks");
  metrics::Counter* trace_contested =
      trace::counter("truth_discovery.contested_tasks");
  metrics::Counter* trace_iters =
      trace::counter("truth_discovery.iterations");
  metrics::Counter* trace_full_passes =
      trace::counter("truth_discovery.full_passes");
  metrics::Series* trace_delta = trace::series("truth_discovery.delta");
  metrics::Series* trace_spread =
      trace::series("truth_discovery.quality_spread");
  // Each handle is guarded on its own (see trace::counter).
  if (trace_votes != nullptr) trace_votes->add(votes.size());
  if (trace_tasks != nullptr) trace_tasks->add(num_tasks);
  if (trace_contested != nullptr) trace_contested->add(split.tasks.size());

  // The contested truths live in x_contested while contested passes run,
  // and in x otherwise; each switch copies them across.
  const RowView all{g, x};
  const RowView contested{split.rows, x_contested};
  const RowView* view = &all;
  const auto switch_to = [&](const RowView& next) {
    if (view == &next) return;
    for (std::size_t c = 0; c < split.tasks.size(); ++c) {
      double& full = x[split.tasks[c]];
      if (&next == &contested) {
        x_contested[c] = full;
      } else {
        full = x_contested[c];
      }
    }
    view = &next;
  };
  // True while each unanimous truth sits at its fixed point, 1.0 or 0.0:
  // from a pass over every row that ran with every quality in (0, 1]
  // until a pass runs with some quality outside it.
  bool settled = false;

  const std::size_t iteration_cap =
      config.use_quality_weighting ? config.max_iterations : 1;
  std::size_t iter = 0;
  bool converged = false;
  while (iter < iteration_cap && !converged) {
    ++iter;
    const bool q_in_range = std::ranges::all_of(
        q, [](double w) { return w > 0.0 && w <= 1.0; });
    if (settled && q_in_range) {
      switch_to(contested);
    } else {
      switch_to(all);
      ++result.full_passes;
    }
    settled = q_in_range;

    // E-step analog (Eq. 4).
    double max_change = e_step(*view, q);

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
    const double max_raw = parallel_reduce(
        std::size_t{0}, worker_count, view->grain(worker_count, kWorkerGrain),
        0.0,
        [&](std::size_t k0, std::size_t k1) {
          double local = 0.0;
          for (std::size_t k = k0; k < k1; ++k) {
            if (g.votes_of_worker(k).empty()) continue;
            raw[k] = chi2_scale[k] / add_deviation(*view, k, floor_dev[k]);
            local = std::max(local, raw[k]);
          }
          return local;
        },
        [](double a, double b) { return std::max(a, b); });
    // Max-normalize into [0,1]; workers with no votes keep quality 1 (the
    // neutral prior) — they never enter Eq. 4 anyway. Max is exact, so
    // this cheap loop runs on the caller.
    for (std::size_t k = 0; k < worker_count; ++k) {
      const double next = g.votes_of_worker(k).empty()
                              ? 1.0
                              : (max_raw > 0.0 ? raw[k] / max_raw : 1.0);
      max_change = std::max(max_change, std::abs(next - q[k]));
      q[k] = next;
    }

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
  if (trace_full_passes != nullptr) {
    trace_full_passes->add(result.full_passes);
  }

  // Calibrated quality for Step 2: sigma_hat_k is the empirical RMS
  // deviation of the worker's votes from the final truths; q = exp(-sigma)
  // inverts §V-B's sigma_k = -log(q_k). It sums over the last pass's rows
  // and divides by the worker's full vote count.
  result.worker_quality.assign(worker_count, 1.0);
  parallel_for(0, worker_count, view->grain(worker_count, kWorkerGrain),
               [&](std::size_t k0, std::size_t k1) {
                 for (std::size_t k = k0; k < k1; ++k) {
                   const std::size_t count = g.votes_of_worker(k).size();
                   if (count == 0) continue;
                   const double msd = add_deviation(*view, k, 0.0) /
                                      static_cast<double>(count);
                   result.worker_quality[k] = std::exp(-std::sqrt(msd));
                 }
               });
  switch_to(all);
  result.truths.reserve(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    result.truths.push_back(
        TaskTruth{g.tasks[t], math::clamp01(x[t]), g.votes_of_task(t).size()});
  }
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
  const VoteIndex g = index_votes(votes, object_count,
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
    const auto row = g.votes_of_task(t);
    double sum = 0.0;
    for (const VoteIndex::TaskVote& v : row) {
      sum += v.x;
    }
    const double x = sum / static_cast<double>(row.size());
    out.push_back(TaskTruth{g.tasks[t], x, row.size()});
  }
  return out;
}

}  // namespace crowdrank
