// Metamorphic properties of the inference pipeline: transformations of the
// input with a known, provable effect on the output. These catch whole
// classes of bugs (hidden ordering dependencies, label leakage, vote
// double-counting) that example-based tests cannot.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.hpp"
#include "core/truth_discovery.hpp"
#include "metrics/kendall.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

/// A reproducible world: tasks, assignment, and a clean-ish vote batch.
struct World {
  std::size_t n = 25;
  std::size_t m = 12;
  Ranking truth = Ranking::identity(25);
  std::unique_ptr<HitAssignment> assignment;
  VoteBatch votes;

  explicit World(std::uint64_t seed) {
    Rng rng(seed);
    auto perm = rng.permutation(n);
    truth = Ranking(std::vector<VertexId>(perm.begin(), perm.end()));
    const auto ta = generate_task_assignment(n, 150, rng);
    std::vector<Edge> tasks(ta.graph.edges().begin(),
                            ta.graph.edges().end());
    assignment =
        std::make_unique<HitAssignment>(tasks, HitConfig{5, 3}, m, rng);
    auto workers = sample_worker_pool(
        m, {QualityDistribution::Gaussian, QualityLevel::Medium}, rng);
    const SimulatedCrowd crowd(truth, workers);
    votes = crowd.collect(*assignment, rng);
  }
};

TEST(Metamorphic, VoteOrderDoesNotAffectTruthDiscovery) {
  const World w(1);
  const auto base = discover_truth(w.votes, w.n, w.m);

  VoteBatch shuffled = w.votes;
  Rng rng(2);
  rng.shuffle(shuffled);
  const auto permuted = discover_truth(shuffled, w.n, w.m);

  ASSERT_EQ(base.truths.size(), permuted.truths.size());
  // Same task set with identical estimates (map by task, order may vary).
  for (const auto& t : base.truths) {
    const auto it = std::find_if(
        permuted.truths.begin(), permuted.truths.end(),
        [&](const TaskTruth& u) { return u.task == t.task; });
    ASSERT_NE(it, permuted.truths.end());
    EXPECT_NEAR(it->x, t.x, 1e-12);
  }
  for (WorkerId k = 0; k < w.m; ++k) {
    EXPECT_NEAR(base.worker_quality[k], permuted.worker_quality[k], 1e-12);
  }
}

TEST(Metamorphic, UniformVoteReplicationBarelyMovesTruths) {
  // Duplicating EVERY vote r times rescales Eq. 4's numerator and
  // denominator equally, so truths would be exactly invariant — except
  // Eq. 5's chi2(alpha/2, |T_k|) is nonlinear in the task count, which
  // perturbs the iteration weights (worst on contested tasks). Assert near-
  // invariance and, critically, that no estimate's direction moves.
  const World w(3);
  const auto base = discover_truth(w.votes, w.n, w.m);

  VoteBatch tripled;
  for (int copy = 0; copy < 3; ++copy) {
    tripled.insert(tripled.end(), w.votes.begin(), w.votes.end());
  }
  const auto replicated = discover_truth(tripled, w.n, w.m);
  ASSERT_EQ(base.truths.size(), replicated.truths.size());
  for (std::size_t t = 0; t < base.truths.size(); ++t) {
    EXPECT_EQ(base.truths[t].task, replicated.truths[t].task);
    EXPECT_NEAR(base.truths[t].x, replicated.truths[t].x, 0.05);
    if (base.truths[t].x != 0.5) {
      EXPECT_EQ(base.truths[t].x > 0.5, replicated.truths[t].x > 0.5);
    }
  }
}

TEST(Metamorphic, ObjectRelabelingIsEquivariant) {
  // Renaming objects by a permutation sigma must rename the output
  // ranking by sigma and nothing else.
  const World w(4);
  Rng rng(5);
  const auto sigma_vec = rng.permutation(w.n);  // sigma[old] = new

  VoteBatch relabeled = w.votes;
  for (Vote& v : relabeled) {
    v.i = sigma_vec[v.i];
    v.j = sigma_vec[v.j];
  }

  // The inference includes stochastic search; determinism comes from the
  // seed, but the search's random choices depend on labels. Use the exact
  // Held-Karp search so the comparison is label-noise-free. n = 25 is too
  // big for Held-Karp, so compare the *closures* entrywise instead, which
  // exercises Steps 1-3 (the deterministic part).
  InferenceConfig config;
  config.saps.iterations = 1;  // Step 4 output not compared
  config.saps.restarts = 1;
  ClosureCapture capture;
  config.control = &capture;
  const InferenceEngine engine(config);
  Rng rng_a(7);
  engine.infer(w.votes, w.n, w.m, rng_a);
  const Matrix base = capture.closure();
  Rng rng_b(7);
  engine.infer(relabeled, w.n, w.m, rng_b);
  const Matrix& renamed = capture.closure();
  ASSERT_EQ(base.rows(), w.n);

  for (VertexId i = 0; i < w.n; ++i) {
    for (VertexId j = 0; j < w.n; ++j) {
      if (i == j) continue;
      EXPECT_NEAR(renamed(sigma_vec[i], sigma_vec[j]), base(i, j), 1e-9)
          << i << "," << j;
    }
  }
}

TEST(Metamorphic, GlobalVoteInversionReversesTheClosure) {
  // Flipping every vote is equivalent to reversing the ground truth: the
  // closure must transpose.
  const World w(6);
  VoteBatch inverted = w.votes;
  for (Vote& v : inverted) {
    v.prefers_i = !v.prefers_i;
  }
  InferenceConfig config;
  config.saps.iterations = 1;
  config.saps.restarts = 1;
  ClosureCapture capture;
  config.control = &capture;
  const InferenceEngine engine(config);
  Rng rng_a(8);
  engine.infer(w.votes, w.n, w.m, rng_a);
  const Matrix base = capture.closure();
  Rng rng_b(8);
  engine.infer(inverted, w.n, w.m, rng_b);
  const Matrix& flipped = capture.closure();
  ASSERT_EQ(base.rows(), w.n);
  for (VertexId i = 0; i < w.n; ++i) {
    for (VertexId j = 0; j < w.n; ++j) {
      if (i == j) continue;
      EXPECT_NEAR(flipped(i, j), base(j, i), 1e-9);
    }
  }
}

TEST(Metamorphic, AddingAPerfectlyRedundantWorkerOnlyHelps) {
  // Cloning an existing worker's votes under a fresh worker id must not
  // change any truth estimate's *direction* (it adds consistent mass).
  const World w(9);
  const auto base = discover_truth(w.votes, w.n, w.m);

  VoteBatch augmented = w.votes;
  for (const Vote& v : w.votes) {
    if (v.worker == 0) {
      augmented.push_back(Vote{static_cast<WorkerId>(w.m), v.i, v.j,
                               v.prefers_i});
    }
  }
  const auto more = discover_truth(augmented, w.n, w.m + 1);
  for (const auto& t : base.truths) {
    const auto it = std::find_if(
        more.truths.begin(), more.truths.end(),
        [&](const TaskTruth& u) { return u.task == t.task; });
    ASSERT_NE(it, more.truths.end());
    if (t.x > 0.6) {
      EXPECT_GT(it->x, 0.5) << "confident direction flipped";
    }
    if (t.x < 0.4) {
      EXPECT_LT(it->x, 0.5) << "confident direction flipped";
    }
  }
}

}  // namespace
}  // namespace crowdrank
