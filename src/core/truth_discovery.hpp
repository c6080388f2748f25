// Step 1 — truth discovery of direct pairwise comparisons (paper §V-A).
//
// Jointly estimates, from the raw vote batch,
//  * the true preference x_ij in [0,1] of every crowdsourced task (the
//    probability that O_i < O_j), and
//  * the quality q_k in [0,1] of every worker,
// by CRH-style alternation: truths are quality-weighted vote averages
// (Eq. 4); a worker's quality is proportional to
// chi2(alpha/2, |T_k|) / sum_over_their_tasks (x^k - x_hat)^2 (Eq. 5),
// max-normalized into [0,1]. Iterates until both estimate vectors move less
// than `tolerance` or `max_iterations` is hit — the paper reports
// convergence within ~10 iterations, which bench/truth_convergence checks.
//
// Most tasks are unanimous (the paper's 1-edges, §V-B: ~82% at n = 1000,
// r = 0.1), and the quality weights cannot move their truths. So after
// the first iteration the loop runs over the rows of the *contested*
// tasks only, those whose votes disagree, with the same bits as a pass
// over every row. The grouping pass copies those rows out: dense ids in
// task order, each task's and each worker's contested votes in batch
// order, and a dense truth vector written back at the end. The bits hold
// because:
//  * Eq. 4 on a unanimous task adds the same q's to num and den in the
//    same order, since x^k is exactly 0.0 or 1.0: num == den for an
//    all-1 task and num == 0.0 for an all-0 one. So its truth is exactly
//    1.0 or 0.0 whenever den > 0, which holds when every worker quality
//    lies in (0, 1]. Such a truth changes by 0 on every later pass, and
//    the convergence test takes an exact max.
//  * A settled unanimous task adds d = x^k - x_t = 0.0 to a worker's
//    Eq. 5 deviation, and dev + 0.0 == dev. So the sum over a worker's
//    contested votes, in batch order, equals the sum over all its votes.
//    The deviation floor and the calibrated quality's mean still count
//    every vote.
// An iteration runs over every row instead when the unanimous truths are
// not settled (the first iteration, and the one after any pass that ran
// with a quality outside (0, 1]) or when some quality lies outside
// (0, 1]: Eq. 5 gives 0, NaN or inf when a worker's total deviation is
// 0, which a deviation_floor of 0 allows. `full_passes` counts those
// iterations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crowd/vote.hpp"
#include "crowd/worker.hpp"
#include "graph/preference_graph.hpp"
#include "graph/types.hpp"

namespace crowdrank {

/// Tunables for the iterative truth-discovery loop.
struct TruthDiscoveryConfig {
  std::size_t max_iterations = 100;
  double tolerance = 1e-6;   ///< max |change| in any x or q to stop
  double alpha = 0.05;       ///< chi-squared confidence parameter (Eq. 5)
  /// Ablation switch: when false, the Eq. 4/5 alternation is skipped —
  /// every worker keeps weight 1 (plain averaging, i.e. soft majority
  /// voting) and only the calibrated qualities are still computed for
  /// Step 2. bench/ablation_assignment-style studies use this to price
  /// the paper's truth-discovery step in isolation.
  bool use_quality_weighting = true;
  /// Per-answer floor added to a worker's squared deviation before
  /// inversion (total floor = deviation_floor * |T_k|). Scaling by the task
  /// count keeps Eq. 5's chi2(|T_k|) / deviation ratio comparable across
  /// workers with different workloads: a flat floor would hand workers with
  /// few tasks a spuriously tiny quality whenever everyone is near-perfect,
  /// and Step 2 would then smooth unanimous edges into coin flips.
  double deviation_floor = 1e-4;
};

/// Votes grouped by task and by worker in flat rows (CSR: row r spans
/// [offsets[r], offsets[r + 1]) of its vote array). Every row lists its
/// votes in batch order, so a sum over a row adds in batch order. An entry
/// is 8 bytes: ids fit in 32 bits (`discover_truth` takes at most 2^32
/// workers and fewer than 2^32 - 1 votes), and x^k is exactly 0 or 1, so
/// its float widens to the same double in every Eq. 4/5 sum.
struct VoteRows {
  /// A vote seen from its task: its worker and x^k in {0, 1}, 1 when the
  /// worker prefers the task's first (smaller) object.
  struct TaskVote {
    std::uint32_t worker;
    float x;
  };
  /// A vote seen from its worker: its task row and x^k.
  struct WorkerVote {
    std::uint32_t task;
    float x;
  };

  std::vector<std::size_t> task_offsets;
  std::vector<TaskVote> task_votes;
  std::vector<std::size_t> worker_offsets;  ///< one row per worker id
  std::vector<WorkerVote> worker_votes;

  std::span<const TaskVote> votes_of_task(std::size_t t) const {
    const std::size_t begin = task_offsets[t];
    return {task_votes.data() + begin, task_offsets[t + 1] - begin};
  }
  std::span<const WorkerVote> votes_of_worker(WorkerId k) const {
    const std::size_t begin = worker_offsets[k];
    return {worker_votes.data() + begin, worker_offsets[k + 1] - begin};
  }
};

/// A vote batch grouped by task and by worker. Tasks are numbered in
/// first-seen vote order, and the inherited rows cover every vote.
/// `discover_truth` builds it in O(votes + object_count + worker_count)
/// and iterates over it; the engine reads each task's voters from the
/// same index.
struct VoteIndex : VoteRows {
  std::vector<Edge> tasks;  ///< canonical (first < second)
};

/// Estimated truth of one crowdsourced comparison task.
struct TaskTruth {
  Edge task;       ///< canonical pair (first < second)
  double x = 0.5;  ///< P(O_first < O_second) in [0, 1]
  std::size_t vote_count = 0;
};

/// Output of Step 1.
struct TruthDiscoveryResult {
  /// One entry per unique task, in first-seen vote order.
  std::vector<TaskTruth> truths;
  /// Calibrated worker quality q_k in [0,1]: q_k = exp(-sigma_hat_k), where
  /// sigma_hat_k is the worker's empirical root-mean-square deviation from
  /// the discovered truths. This inverts the paper's own sigma_k =
  /// -log(q_k) convention (§V-B), so Step 2 recovers exactly the error
  /// scale the data exhibits. (Eq. 5's weights are only defined up to a
  /// proportionality constant — usable for the iteration below, but not as
  /// absolute probabilities.)
  std::vector<double> worker_quality;
  /// Raw Eq.-5 iteration weights, max-normalized into [0,1]; exposed for
  /// diagnostics and the ablation benches.
  std::vector<double> worker_weight;
  std::size_t iterations = 0;
  bool converged = false;
  /// Tasks whose votes disagree: the rows every iteration after the first
  /// runs over while the unanimous truths stay settled.
  std::size_t contested_tasks = 0;
  /// Iterations that ran over every task (1 <= full_passes <= iterations).
  std::size_t full_passes = 0;

  /// Builds the preference graph G_P from the estimated truths: for each
  /// task (i, j) with truth x, edge i->j gets weight x and j->i gets 1-x
  /// (a weight of 0 means the edge is absent, so unanimous tasks produce
  /// exactly the paper's 1-edges).
  PreferenceGraph to_preference_graph(std::size_t n) const;
};

/// Runs Step 1. `worker_count` sizes the quality vector (workers with no
/// votes keep the neutral prior quality 1 but influence nothing).
/// Throws when `votes` is empty or references out-of-range ids, when it
/// holds 2^32 - 1 votes or more or object_count exceeds 2^32 - 1, and
/// when worker_count exceeds 2^32.
/// `index` (optional) receives the grouping of `votes` that step 1 ran
/// on.
TruthDiscoveryResult discover_truth(const VoteBatch& votes,
                                    std::size_t object_count,
                                    std::size_t worker_count,
                                    const TruthDiscoveryConfig& config = {},
                                    VoteIndex* index = nullptr);

/// Plain majority voting over the same vote batch (every worker weight 1,
/// single pass). The paper's §I strawman; used by baselines and ablations.
std::vector<TaskTruth> majority_vote_truth(const VoteBatch& votes,
                                           std::size_t object_count);

}  // namespace crowdrank
