#include "hit_reference.hpp"

#include <algorithm>

#include "../util/sample_reference.hpp"

namespace crowdrank {

HitReference hit_assignment_reference(const std::vector<Edge>& tasks,
                                      const HitConfig& config,
                                      std::size_t worker_pool_size,
                                      Rng& rng) {
  HitReference ref;
  ref.task_workers.resize(tasks.size());
  for (std::size_t start = 0; start < tasks.size();
       start += config.comparisons_per_hit) {
    const std::size_t end =
        std::min(start + config.comparisons_per_hit, tasks.size());
    std::vector<WorkerId> workers = floyd_sample_reference(
        rng, worker_pool_size, config.workers_per_hit);
    std::sort(workers.begin(), workers.end());
    for (std::size_t t = start; t < end; ++t) {
      ref.task_workers[t] = workers;
    }
    ++ref.hit_count;
  }
  for (const auto& workers : ref.task_workers) {
    ref.total_answer_count += workers.size();
  }
  return ref;
}

}  // namespace crowdrank
