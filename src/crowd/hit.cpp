#include "crowd/hit.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace crowdrank {

HitAssignment::HitAssignment(const std::vector<Edge>& tasks,
                             const HitConfig& config,
                             std::size_t worker_pool_size, Rng& rng)
    : tasks_(tasks),
      comparisons_per_hit_(config.comparisons_per_hit),
      workers_per_hit_(config.workers_per_hit) {
  CR_EXPECTS(!tasks.empty(), "need at least one comparison task");
  CR_EXPECTS(config.comparisons_per_hit >= 1, "HITs need c >= 1");
  CR_EXPECTS(config.workers_per_hit >= 1, "HITs need w >= 1");
  CR_EXPECTS(config.workers_per_hit <= worker_pool_size,
             "replication w must not exceed the worker pool size m");

  // Each HIT, in task order, draws w distinct workers uniformly at random
  // from the pool.
  const std::size_t c = comparisons_per_hit_;
  const std::size_t w = workers_per_hit_;
  const std::size_t hits = (tasks_.size() - 1) / c + 1;
  hit_workers_.resize(hits * w);
  for (std::size_t h = 0; h < hits; ++h) {
    const std::span<WorkerId> row(hit_workers_.data() + h * w, w);
    rng.sample_without_replacement(worker_pool_size, row);
    std::sort(row.begin(), row.end());
  }
}

std::span<const WorkerId> HitAssignment::workers_for_task(
    std::size_t t) const {
  CR_EXPECTS(t < tasks_.size(), "task index out of range");
  return {hit_workers_.data() + t / comparisons_per_hit_ * workers_per_hit_,
          workers_per_hit_};
}

}  // namespace crowdrank
