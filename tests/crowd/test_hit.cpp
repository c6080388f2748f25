// Unit tests for HIT construction and assignment (paper §II), and the
// flat rows checked against the nested-vector original.
#include "crowd/hit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "hit_reference.hpp"
#include "util/error.hpp"

namespace crowdrank {
namespace {

std::vector<Edge> chain_tasks(std::size_t n) {
  std::vector<Edge> tasks;
  for (VertexId i = 0; i + 1 < n; ++i) {
    tasks.push_back(Edge::canonical(i, i + 1));
  }
  return tasks;
}

template <class T>
std::vector<T> as_vector(std::span<const T> row) {
  return {row.begin(), row.end()};
}

TEST(Hit, PacksComparisonsPerHit) {
  Rng rng(1);
  const auto tasks = chain_tasks(8);  // 7 tasks
  const HitAssignment a(tasks, HitConfig{3, 2}, 10, rng);
  EXPECT_EQ(a.hit_count(), 3u);  // 3 + 3 + 1
  EXPECT_EQ(a.unique_task_count(), 7u);
  // Task t reads the workers of HIT t / 3.
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_EQ(a.workers_for_task(t).data(),
              a.workers_for_task(t / 3 * 3).data());
  }
  EXPECT_NE(a.workers_for_task(5).data(), a.workers_for_task(6).data());
}

TEST(Hit, EveryTaskGetsExactlyWDistinctWorkers) {
  Rng rng(2);
  const auto tasks = chain_tasks(20);
  const HitAssignment a(tasks, HitConfig{4, 5}, 12, rng);
  for (std::size_t t = 0; t < a.unique_task_count(); ++t) {
    const auto workers = a.workers_for_task(t);
    EXPECT_EQ(workers.size(), 5u);
    const std::set<WorkerId> unique(workers.begin(), workers.end());
    EXPECT_EQ(unique.size(), 5u);
    for (const WorkerId k : unique) {
      EXPECT_LT(k, 12u);
    }
  }
  EXPECT_EQ(a.total_answer_count(), 19u * 5u);
}

TEST(Hit, WorkerTaskIndexIsConsistent) {
  Rng rng(3);
  const auto tasks = chain_tasks(16);  // 15 tasks -> 7 HITs of 2, then 1
  const HitAssignment a(tasks, HitConfig{2, 3}, 8, rng);
  // Scanning the tasks, a worker holds every task of each HIT it is in,
  // and the workers' task counts add up to the answers paid for.
  std::vector<std::size_t> tasks_of(8, 0);
  std::vector<std::size_t> hit_tasks_of(8, 0);
  for (std::size_t t = 0; t < a.unique_task_count(); ++t) {
    const std::size_t hit_size =
        std::min<std::size_t>(2, a.unique_task_count() - t / 2 * 2);
    for (const WorkerId k : a.workers_for_task(t)) {
      ASSERT_LT(k, 8u);
      ++tasks_of[k];
      if (t % 2 == 0) hit_tasks_of[k] += hit_size;
    }
  }
  EXPECT_EQ(tasks_of, hit_tasks_of);
  std::size_t total = 0;
  for (const std::size_t count : tasks_of) total += count;
  EXPECT_EQ(total, a.total_answer_count());
}

TEST(Hit, TasksInsideOneHitShareWorkers) {
  Rng rng(4);
  const auto tasks = chain_tasks(7);  // 6 tasks -> 2 HITs of 3
  const HitAssignment a(tasks, HitConfig{3, 2}, 10, rng);
  EXPECT_EQ(as_vector(a.workers_for_task(0)), as_vector(a.workers_for_task(1)));
  EXPECT_EQ(as_vector(a.workers_for_task(1)), as_vector(a.workers_for_task(2)));
}

TEST(Hit, ValidatesConfiguration) {
  Rng rng(5);
  const auto tasks = chain_tasks(5);
  EXPECT_THROW(HitAssignment({}, HitConfig{1, 1}, 5, rng), Error);
  EXPECT_THROW(HitAssignment(tasks, HitConfig{0, 1}, 5, rng), Error);
  EXPECT_THROW(HitAssignment(tasks, HitConfig{1, 0}, 5, rng), Error);
  EXPECT_THROW(HitAssignment(tasks, HitConfig{1, 6}, 5, rng), Error);  // w > m
}

TEST(Hit, IndexBoundsChecked) {
  Rng rng(6);
  const auto tasks = chain_tasks(4);
  const HitAssignment a(tasks, HitConfig{1, 2}, 5, rng);
  EXPECT_THROW(a.workers_for_task(99), Error);
  EXPECT_THROW(a.workers_for_task(3), Error);
}

/// Checks every task's workers, the answer count and the Rng's next draw
/// against the nested-vector original.
void expect_same_as_reference(std::size_t task_count, const HitConfig& config,
                              std::size_t pool, std::uint64_t seed) {
  SCOPED_TRACE("l = " + std::to_string(task_count) +
               ", c = " + std::to_string(config.comparisons_per_hit) +
               ", w = " + std::to_string(config.workers_per_hit) +
               ", m = " + std::to_string(pool));
  std::vector<Edge> tasks;
  for (std::size_t t = 0; t < task_count; ++t) {
    tasks.push_back({t, t + 1});
  }
  Rng rng(seed);
  Rng ref_rng(seed);
  const HitAssignment a(tasks, config, pool, rng);
  const HitReference want =
      hit_assignment_reference(tasks, config, pool, ref_rng);
  EXPECT_EQ(a.hit_count(), want.hit_count);
  EXPECT_EQ(a.total_answer_count(), want.total_answer_count);
  for (std::size_t t = 0; t < task_count; ++t) {
    ASSERT_EQ(as_vector(a.workers_for_task(t)), want.task_workers[t])
        << "task " << t;
  }
  EXPECT_EQ(rng(), ref_rng());
}

TEST(Hit, MatchesTheNestedVectorReference) {
  expect_same_as_reference(37, HitConfig{1, 3}, 10, 1);   // c = 1
  expect_same_as_reference(38, HitConfig{5, 3}, 10, 2);   // partial last HIT
  expect_same_as_reference(41, HitConfig{4, 9}, 9, 3);    // w = m
  expect_same_as_reference(3, HitConfig{8, 2}, 4, 4);     // one partial HIT
  expect_same_as_reference(200, HitConfig{3, 20}, 40, 5); // w above the scan
  // The paper's point: c = 5, w = 3, m = 30, l = 49,950.
  expect_same_as_reference(49'950, HitConfig{5, 3}, 30, 6);
}

}  // namespace
}  // namespace crowdrank
