// HIT (Human Intelligence Task) model (paper §II).
//
// The requester groups the l unique pairwise comparisons into HITs of
// c >= 1 comparisons each, and assigns every HIT to w > 1 distinct workers
// out of the pool of m workers (w <= m). The assignment is one-time
// (non-interactive): it is fixed before any answer is seen.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "crowd/worker.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"

namespace crowdrank {

/// Configuration of HIT construction.
struct HitConfig {
  std::size_t comparisons_per_hit = 1;  ///< c
  std::size_t workers_per_hit = 3;      ///< w (replication factor)
};

/// The full one-round assignment: tasks packed in order into HITs of c
/// comparisons, so HIT h holds tasks [h c, (h + 1) c). Each HIT's w workers
/// sit in one flat array, sorted, and task t reads the row of HIT
/// floor(t / c).
class HitAssignment {
 public:
  /// Packs `tasks` into HITs of c comparisons and assigns each HIT to w
  /// distinct workers sampled uniformly from the pool. Requires
  /// w <= pool size and at least one task.
  HitAssignment(const std::vector<Edge>& tasks, const HitConfig& config,
                std::size_t worker_pool_size, Rng& rng);

  /// Number of HITs: ceil(tasks / c); the last may hold fewer than c.
  std::size_t hit_count() const {
    return hit_workers_.size() / workers_per_hit_;
  }
  std::size_t unique_task_count() const { return tasks_.size(); }
  const std::vector<Edge>& tasks() const { return tasks_; }

  /// Workers assigned to task index t (into tasks()), ascending: the
  /// workers of its HIT.
  std::span<const WorkerId> workers_for_task(std::size_t t) const;

  /// Total pairwise answers that will be collected (sum over tasks of its
  /// replication) — what the budget actually pays for.
  std::size_t total_answer_count() const {
    return tasks_.size() * workers_per_hit_;
  }

 private:
  std::vector<Edge> tasks_;
  std::size_t comparisons_per_hit_;
  std::size_t workers_per_hit_;
  std::vector<WorkerId> hit_workers_;  ///< HIT h: [h w, (h + 1) w)
};

}  // namespace crowdrank
