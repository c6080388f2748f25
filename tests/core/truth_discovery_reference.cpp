#include "truth_discovery_reference.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/math.hpp"

namespace crowdrank {

TruthDiscoveryResult discover_truth_reference(
    const VoteBatch& votes, std::size_t object_count,
    std::size_t worker_count, const TruthDiscoveryConfig& config,
    VoteIndex* index) {
  CR_EXPECTS(!votes.empty(), "truth discovery needs at least one vote");
  CR_EXPECTS(index != nullptr, "the reference needs an index to fill");
  VoteIndex& g = *index;
  g = VoteIndex{};

  // Tasks in first-seen order; every row in batch order.
  std::map<Edge, std::size_t> task_id;
  std::vector<std::vector<VoteIndex::TaskVote>> by_task;
  std::vector<std::vector<VoteIndex::WorkerVote>> by_worker(worker_count);
  for (const Vote& v : votes) {
    CR_EXPECTS(v.i < object_count && v.j < object_count && v.i != v.j &&
                   v.worker < worker_count,
               "the reference takes valid votes only");
    const Edge task = Edge::canonical(v.i, v.j);
    const auto [it, inserted] = task_id.emplace(task, g.tasks.size());
    if (inserted) {
      g.tasks.push_back(task);
      by_task.emplace_back();
    }
    const float x = v.prefers_i == (v.i < v.j) ? 1.0f : 0.0f;
    by_task[it->second].push_back({static_cast<std::uint32_t>(v.worker), x});
    by_worker[v.worker].push_back({static_cast<std::uint32_t>(it->second), x});
  }
  g.task_offsets.push_back(0);
  for (const auto& row : by_task) {
    g.task_votes.insert(g.task_votes.end(), row.begin(), row.end());
    g.task_offsets.push_back(g.task_votes.size());
  }
  g.worker_offsets.push_back(0);
  for (const auto& row : by_worker) {
    g.worker_votes.insert(g.worker_votes.end(), row.begin(), row.end());
    g.worker_offsets.push_back(g.worker_votes.size());
  }
  const std::size_t num_tasks = g.tasks.size();

  std::vector<double> x(num_tasks, 0.5);
  std::vector<double> q(worker_count, 1.0);
  std::vector<double> chi2_scale(worker_count, 0.0);
  for (WorkerId k = 0; k < worker_count; ++k) {
    const std::size_t dof = g.votes_of_worker(k).size();
    if (dof > 0) {
      chi2_scale[k] = math::chi_squared_quantile(config.alpha / 2.0,
                                                 static_cast<double>(dof));
    }
  }

  const std::size_t iteration_cap =
      config.use_quality_weighting ? config.max_iterations : 1;
  std::size_t iter = 0;
  bool converged = false;
  while (iter < iteration_cap && !converged) {
    ++iter;
    double max_change = 0.0;
    // Eq. 4 over every task.
    for (std::size_t t = 0; t < num_tasks; ++t) {
      double num = 0.0;
      double den = 0.0;
      for (const VoteIndex::TaskVote& v : g.votes_of_task(t)) {
        num += v.x * q[v.worker];
        den += q[v.worker];
      }
      const double next = den > 0.0 ? num / den : 0.5;
      max_change = std::max(max_change, std::abs(next - x[t]));
      x[t] = next;
    }
    if (!config.use_quality_weighting) {
      converged = true;
      break;
    }
    // Eq. 5 over every vote, then max-normalization.
    std::vector<double> raw(worker_count, 0.0);
    double max_raw = 0.0;
    for (WorkerId k = 0; k < worker_count; ++k) {
      const auto row = g.votes_of_worker(k);
      if (row.empty()) continue;
      double dev = config.deviation_floor * static_cast<double>(row.size());
      for (const VoteIndex::WorkerVote& v : row) {
        const double d = v.x - x[v.task];
        dev += d * d;
      }
      raw[k] = chi2_scale[k] / dev;
      max_raw = std::max(max_raw, raw[k]);
    }
    for (WorkerId k = 0; k < worker_count; ++k) {
      const double next = g.votes_of_worker(k).empty()
                              ? 1.0
                              : (max_raw > 0.0 ? raw[k] / max_raw : 1.0);
      max_change = std::max(max_change, std::abs(next - q[k]));
      q[k] = next;
    }
    converged = max_change < config.tolerance;
  }

  TruthDiscoveryResult result;
  for (std::size_t t = 0; t < num_tasks; ++t) {
    result.truths.push_back(
        TaskTruth{g.tasks[t], math::clamp01(x[t]), g.votes_of_task(t).size()});
  }
  result.worker_quality.assign(worker_count, 1.0);
  for (WorkerId k = 0; k < worker_count; ++k) {
    const auto row = g.votes_of_worker(k);
    if (row.empty()) continue;
    double dev = 0.0;
    for (const VoteIndex::WorkerVote& v : row) {
      const double d = v.x - x[v.task];
      dev += d * d;
    }
    const double msd = dev / static_cast<double>(row.size());
    result.worker_quality[k] = std::exp(-std::sqrt(msd));
  }
  result.worker_weight = std::move(q);
  result.iterations = iter;
  result.converged = converged;
  return result;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_rows(const VoteRows& a, const VoteRows& b) {
  const auto same_task_vote = [](const VoteRows::TaskVote& u,
                                 const VoteRows::TaskVote& v) {
    return u.worker == v.worker && same_bits(u.x, v.x);
  };
  const auto same_worker_vote = [](const VoteRows::WorkerVote& u,
                                   const VoteRows::WorkerVote& v) {
    return u.task == v.task && same_bits(u.x, v.x);
  };
  return a.task_offsets == b.task_offsets &&
         std::ranges::equal(a.task_votes, b.task_votes, same_task_vote) &&
         a.worker_offsets == b.worker_offsets &&
         std::ranges::equal(a.worker_votes, b.worker_votes,
                            same_worker_vote);
}

/// Tasks of `index` whose votes disagree.
std::size_t contested_count(const VoteIndex& index) {
  std::size_t count = 0;
  for (std::size_t t = 0; t < index.tasks.size(); ++t) {
    const auto row = index.votes_of_task(t);
    for (const auto& v : row) {
      if (v.x != row.front().x) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace

std::string step1_mismatch(const TruthDiscoveryResult& got,
                           const VoteIndex& got_index,
                           const TruthDiscoveryResult& want,
                           const VoteIndex& want_index) {
  std::ostringstream os;
  if (got.truths.size() != want.truths.size()) {
    os << got.truths.size() << " truths, want " << want.truths.size();
    return os.str();
  }
  for (std::size_t t = 0; t < got.truths.size(); ++t) {
    const TaskTruth& a = got.truths[t];
    const TaskTruth& b = want.truths[t];
    if (a.task != b.task || !same_bits(a.x, b.x) ||
        a.vote_count != b.vote_count) {
      os << "truth " << t << ": (" << a.task.first << ", " << a.task.second
         << ") x " << a.x << " votes " << a.vote_count << ", want ("
         << b.task.first << ", " << b.task.second << ") x " << b.x
         << " votes " << b.vote_count;
      return os.str();
    }
  }
  const auto same_vector = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
    return std::ranges::equal(a, b, same_bits);
  };
  if (!same_vector(got.worker_quality, want.worker_quality)) {
    return "worker_quality differs";
  }
  if (!same_vector(got.worker_weight, want.worker_weight)) {
    return "worker_weight differs";
  }
  if (got.iterations != want.iterations || got.converged != want.converged) {
    os << got.iterations << " iterations, converged " << got.converged
       << "; want " << want.iterations << ", " << want.converged;
    return os.str();
  }
  if (got_index.tasks != want_index.tasks ||
      !same_rows(got_index, want_index)) {
    return "the index rows differ";
  }
  if (got.contested_tasks != contested_count(want_index)) {
    os << got.contested_tasks << " contested tasks, want "
       << contested_count(want_index);
    return os.str();
  }
  if (got.full_passes < 1 || got.full_passes > got.iterations) {
    os << got.full_passes << " full passes of " << got.iterations;
    return os.str();
  }
  return "";
}

}  // namespace crowdrank
