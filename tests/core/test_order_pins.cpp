// Known-answer pins for the order-sensitive host passes.
//
// Task assignment and step 1's vote grouping fix orders that every later
// floating-point sum inherits: the task-graph edge sequence and neighbor
// rows, the RNG draws, the task order of step 1 (first-seen vote order),
// the votes of each task and of each worker (batch order) and the workers
// of each task. These tests digest those orders and the values that
// depend on them, so any reordering fails here even when the result is
// still a valid ranking. The cases were chosen by branch coverage of
// generate_task_assignment: a large job that repairs ten times, a
// near-complete budget that needs the exhaustive pair scan, a repair of a
// single vertex (u == v), and the l = n - 1 and l = n budgets around the
// degree-target balancing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/task_assignment.hpp"
#include "crowd/hit.hpp"
#include "crowd/simulator.hpp"
#include "crowd/worker.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

/// FNV-1a over 64-bit words: a digest local to these pins, so they do not
/// move with the library's own hash.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (word >> (8 * byte)) & 0xffu;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

  std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(state_));
    return text;
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct AssignmentPin {
  std::size_t n;
  std::size_t edges;
  std::uint64_t seed;
  std::size_t repairs;
  const char* digest;  ///< edges, neighbor rows and the next RNG draw
};

std::string assignment_digest(const TaskAssignment& plan, Rng& rng) {
  Digest d;
  for (const Edge& e : plan.graph.edges()) {
    d.add(e.first);
    d.add(e.second);
  }
  for (VertexId v = 0; v < plan.graph.vertex_count(); ++v) {
    d.add(plan.graph.degree(v));
    for (const VertexId u : plan.graph.neighbors(v)) {
      d.add(u);
    }
  }
  d.add(rng());
  return d.hex();
}

TEST(OrderPins, TaskAssignmentEdgeSequences) {
  const AssignmentPin pins[] = {
      {1000, 49950, 1, 10, "b46d26626d5c7b5d"},  // n = 1000, r = 0.1
      {20, 186, 6, 1, "cd54900269389106"},       // exhaustive pair scan
      {16, 60, 2, 1, "135a2d6e314de1c1"},        // u == v repair
      {100, 99, 1, 0, "57392c2a5f92c5a1"},       // l = n - 1: rebalanced
      {100, 100, 1, 0, "bf4b8067a173e8e7"},      // l = n
  };
  for (const AssignmentPin& pin : pins) {
    SCOPED_TRACE(pin.digest);
    Rng rng(pin.seed);
    const TaskAssignment plan = generate_task_assignment(pin.n, pin.edges, rng);
    EXPECT_EQ(plan.stats.repair_operations, pin.repairs);
    EXPECT_EQ(assignment_digest(plan, rng), pin.digest);
  }
}

constexpr std::size_t kObjects = 100;
constexpr std::size_t kWorkers = 30;

/// A ~10k-vote batch on n = 100 from 30 workers, with 300 repeated
/// answers (some spelled with i and j swapped, some changing their
/// preference) appended and the whole batch shuffled, so first-seen task
/// order differs from the assignment's and workers repeat within tasks.
struct ShuffledRound {
  ShuffledRound() {
    Rng rng(7);
    const auto perm = rng.permutation(kObjects);
    const Ranking truth(std::vector<VertexId>(perm.begin(), perm.end()));
    const TaskAssignment plan = generate_task_assignment(kObjects, 3300, rng);
    const std::vector<Edge> edges(plan.graph.edges().begin(),
                                  plan.graph.edges().end());
    hits.emplace(edges, HitConfig{5, 3}, kWorkers, rng);
    const auto pool = sample_worker_pool(kWorkers, {}, rng);
    votes = SimulatedCrowd(truth, pool).collect(*hits, rng);
    const std::size_t answered = votes.size();
    for (int k = 0; k < 300; ++k) {
      Vote v = votes[rng.uniform_index(answered)];
      if (rng.bernoulli(0.5)) {
        std::swap(v.i, v.j);
        v.prefers_i = !v.prefers_i;
      }
      if (rng.bernoulli(0.3)) {
        v.prefers_i = !v.prefers_i;
      }
      votes.push_back(v);
    }
    rng.shuffle(votes);
  }

  std::optional<HitAssignment> hits;
  VoteBatch votes;
};

/// Pins step 1's task order, the bits of each truth x with its vote
/// count, the 1-edge count, the bits of the log-probability, and the
/// ranking.
void expect_pinned(const InferenceResult& r, const char* task_order,
                   const char* truths_digest, std::size_t one_edges,
                   const char* log_p_bits, const char* ranking_digest) {
  Digest order;
  Digest truths;
  for (const TaskTruth& t : r.step1.truths) {
    order.add(t.task.first);
    order.add(t.task.second);
    truths.add(t.x);
    truths.add(t.vote_count);
  }
  Digest ranking;
  for (const VertexId v : r.ranking.order()) {
    ranking.add(v);
  }
  Digest log_probability;
  log_probability.add(r.log_probability);
  EXPECT_EQ(order.hex(), task_order);
  EXPECT_EQ(truths.hex(), truths_digest);
  EXPECT_EQ(r.one_edge_count, one_edges);
  EXPECT_EQ(log_probability.hex(), log_p_bits);
  EXPECT_EQ(ranking.hex(), ranking_digest);
}

TEST(OrderPins, InferenceThroughBothOverloads) {
  const ShuffledRound round;
  ASSERT_GT(round.votes.size(), 10000u);
  const InferenceEngine engine;

  Rng assigned_rng(11);
  const InferenceResult assigned =
      engine.infer(round.votes, kObjects, kWorkers, *round.hits, assigned_rng);
  expect_pinned(assigned, "0a44e89eb90edba5", "baf7d731ae5ec218", 2665,
                "ce40f831d3abf063", "62003f5083378365");

  Rng voters_rng(11);
  const InferenceResult voters =
      engine.infer(round.votes, kObjects, kWorkers, voters_rng);
  expect_pinned(voters, "0a44e89eb90edba5", "baf7d731ae5ec218", 2665,
                "ce40f831d3abf063", "62003f5083378365");
}

}  // namespace
}  // namespace crowdrank
