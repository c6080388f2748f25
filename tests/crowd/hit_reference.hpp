// Reference HIT construction: the original `HitAssignment`, kept as the
// oracle for the flat rows in crowd/hit.cpp.
//
// It packs the tasks into HITs of c comparisons in order, draws each
// HIT's w workers with Floyd's algorithm over a std::set, sorts them and
// copies them into every task of the HIT.
#pragma once

#include <cstddef>
#include <vector>

#include "crowd/hit.hpp"

namespace crowdrank {

struct HitReference {
  std::size_t hit_count = 0;
  std::vector<std::vector<WorkerId>> task_workers;
  std::size_t total_answer_count = 0;
};

/// Same draws as the `HitAssignment` constructor; valid inputs only.
HitReference hit_assignment_reference(const std::vector<Edge>& tasks,
                                      const HitConfig& config,
                                      std::size_t worker_pool_size,
                                      Rng& rng);

}  // namespace crowdrank
