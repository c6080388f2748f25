// Unit tests for Step 1 — truth discovery (paper §V-A, Eqs. 4-5).
#include "core/truth_discovery.hpp"

#include <gtest/gtest.h>

#include "core/task_assignment.hpp"
#include "crowd/simulator.hpp"
#include "util/rng.hpp"

#include "util/error.hpp"

namespace crowdrank {
namespace {

// Step 1's rows hold one 8-byte entry per vote and view.
static_assert(sizeof(VoteRows::TaskVote) == 8);
static_assert(sizeof(VoteRows::WorkerVote) == 8);

Vote vote(WorkerId k, VertexId i, VertexId j, bool prefers_i) {
  return Vote{k, i, j, prefers_i};
}

TEST(TruthDiscovery, UnanimousVotesYieldOneEdge) {
  const VoteBatch votes{vote(0, 0, 1, true), vote(1, 0, 1, true),
                        vote(2, 0, 1, true)};
  const auto result = discover_truth(votes, 2, 3);
  ASSERT_EQ(result.truths.size(), 1u);
  EXPECT_EQ(result.truths[0].task, (Edge{0, 1}));
  EXPECT_DOUBLE_EQ(result.truths[0].x, 1.0);
  EXPECT_EQ(result.truths[0].vote_count, 3u);
}

TEST(TruthDiscovery, CanonicalizationFlipsReversedVotes) {
  // "prefers_i" on (1, 0) means object 1 preferred: x for canonical (0,1)
  // must be 0.
  const VoteBatch votes{vote(0, 1, 0, true), vote(1, 1, 0, true)};
  const auto result = discover_truth(votes, 2, 2);
  ASSERT_EQ(result.truths.size(), 1u);
  EXPECT_EQ(result.truths[0].task, (Edge{0, 1}));
  EXPECT_DOUBLE_EQ(result.truths[0].x, 0.0);
}

TEST(TruthDiscovery, ReliableWorkersDominateConflicts) {
  // Workers 0-2 agree on many tasks; worker 3 contradicts them everywhere.
  VoteBatch votes;
  for (VertexId i = 0; i < 8; ++i) {
    for (WorkerId k = 0; k < 3; ++k) {
      votes.push_back(vote(k, i, i + 1, true));
    }
    votes.push_back(vote(3, i, i + 1, false));
  }
  const auto result = discover_truth(votes, 9, 4);
  // The consistent majority wins; the dissenter gets a low Eq.-5 weight
  // and a calibrated quality well below the majority's.
  for (const auto& t : result.truths) {
    EXPECT_GT(t.x, 0.9);
  }
  EXPECT_LT(result.worker_weight[3], 0.2);
  EXPECT_LT(result.worker_quality[3], result.worker_quality[0] - 0.3);
  EXPECT_GT(result.worker_quality[0], 0.9);
}

TEST(TruthDiscovery, WeightsMaxNormalizedQualitiesCalibrated) {
  VoteBatch votes;
  for (VertexId i = 0; i < 5; ++i) {
    votes.push_back(vote(0, i, i + 1, true));
    votes.push_back(vote(1, i, i + 1, i % 2 == 0));
    votes.push_back(vote(2, i, i + 1, true));  // anchors the majority
  }
  const auto result = discover_truth(votes, 6, 3);
  // Eq.-5 iteration weights are max-normalized to [0, 1] with max 1.
  double max_w = 0.0;
  for (const double w : result.worker_weight) {
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
    max_w = std::max(max_w, w);
  }
  EXPECT_DOUBLE_EQ(max_w, 1.0);
  // Calibrated qualities are probabilities: q = exp(-rms deviation).
  for (const double q : result.worker_quality) {
    EXPECT_GT(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
  // The consistent worker outranks the erratic one on both scales.
  EXPECT_GT(result.worker_quality[0], result.worker_quality[1]);
  EXPECT_GT(result.worker_weight[0], result.worker_weight[1]);
}

TEST(TruthDiscovery, ConvergesQuicklyOnCleanData) {
  // Paper: "convergence within 10 iterations for most of the testing
  // cases".
  VoteBatch votes;
  for (VertexId i = 0; i < 20; ++i) {
    for (WorkerId k = 0; k < 5; ++k) {
      votes.push_back(vote(k, i, i + 1, true));
    }
  }
  const auto result = discover_truth(votes, 21, 5);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 10u);
}

TEST(TruthDiscovery, HonorsIterationCap) {
  VoteBatch votes{vote(0, 0, 1, true), vote(1, 0, 1, false)};
  TruthDiscoveryConfig config;
  config.max_iterations = 1;
  config.tolerance = 1e-15;
  const auto result = discover_truth(votes, 2, 2, config);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(TruthDiscovery, SplitVoteGivesIntermediateTruth) {
  const VoteBatch votes{vote(0, 0, 1, true), vote(1, 0, 1, false)};
  const auto result = discover_truth(votes, 2, 2);
  EXPECT_GT(result.truths[0].x, 0.0);
  EXPECT_LT(result.truths[0].x, 1.0);
}

TEST(TruthDiscovery, WorkersWithoutVotesKeepNeutralQuality) {
  const VoteBatch votes{vote(0, 0, 1, true)};
  const auto result = discover_truth(votes, 2, 3);
  EXPECT_DOUBLE_EQ(result.worker_quality[1], 1.0);
  EXPECT_DOUBLE_EQ(result.worker_quality[2], 1.0);
}

TEST(TruthDiscovery, ValidatesInputs) {
  EXPECT_THROW(discover_truth({}, 2, 1), Error);
  EXPECT_THROW(discover_truth({vote(0, 0, 5, true)}, 2, 1), Error);
  EXPECT_THROW(discover_truth({vote(5, 0, 1, true)}, 2, 1), Error);
  EXPECT_THROW(discover_truth({vote(0, 1, 1, true)}, 2, 1), Error);
  TruthDiscoveryConfig bad;
  bad.max_iterations = 0;
  EXPECT_THROW(discover_truth({vote(0, 0, 1, true)}, 2, 1, bad), Error);
  bad = {};
  bad.alpha = 1.5;
  EXPECT_THROW(discover_truth({vote(0, 0, 1, true)}, 2, 1, bad), Error);
}

TEST(TruthDiscovery, ToPreferenceGraphBuildsBothDirections) {
  const VoteBatch votes{vote(0, 0, 1, true), vote(1, 0, 1, true),
                        vote(2, 0, 1, false), vote(0, 1, 2, true),
                        vote(1, 1, 2, true), vote(2, 1, 2, true)};
  const auto result = discover_truth(votes, 3, 3);
  const PreferenceGraph g = result.to_preference_graph(3);
  // Task (0,1) split: both directions present, weights sum to 1.
  EXPECT_GT(g.weight(0, 1), 0.0);
  EXPECT_GT(g.weight(1, 0), 0.0);
  EXPECT_NEAR(g.weight(0, 1) + g.weight(1, 0), 1.0, 1e-12);
  // Task (1,2) unanimous: a 1-edge, reverse absent.
  EXPECT_DOUBLE_EQ(g.weight(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(g.weight(2, 1), 0.0);
}

TEST(TruthDiscovery, QualityWeightingOffIsPlainAveraging) {
  // Reliable pair vs noisy trio on a contested task (same fixture as the
  // BeatsMajorityVote test below): with weighting off, the estimate must
  // equal the raw vote average.
  VoteBatch votes;
  for (VertexId i = 0; i < 12; ++i) {
    votes.push_back(vote(0, i, i + 1, true));
    votes.push_back(vote(1, i, i + 1, true));
    votes.push_back(vote(2, i, i + 1, i % 2 == 0));
    votes.push_back(vote(3, i, i + 1, i % 3 == 0));
    votes.push_back(vote(4, i, i + 1, i % 5 == 0));
  }
  votes.push_back(vote(0, 20, 21, true));
  votes.push_back(vote(1, 20, 21, true));
  votes.push_back(vote(2, 20, 21, false));
  votes.push_back(vote(3, 20, 21, false));
  votes.push_back(vote(4, 20, 21, false));

  TruthDiscoveryConfig config;
  config.use_quality_weighting = false;
  const auto unweighted = discover_truth(votes, 22, 5, config);
  EXPECT_EQ(unweighted.iterations, 1u);
  EXPECT_TRUE(unweighted.converged);
  for (const auto& t : unweighted.truths) {
    if (t.task == Edge{20, 21}) {
      EXPECT_DOUBLE_EQ(t.x, 0.4);  // 2 of 5 votes
    }
  }
  // Calibrated qualities are still produced for Step 2.
  for (const double q : unweighted.worker_quality) {
    EXPECT_GT(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
  // And the weighted variant moves the contested estimate upward.
  const auto weighted = discover_truth(votes, 22, 5);
  for (const auto& t : weighted.truths) {
    if (t.task == Edge{20, 21}) {
      EXPECT_GT(t.x, 0.4);
    }
  }
}

TEST(TruthDiscovery, RefusesMoreWorkersThanThirtyTwoBitIdsName) {
  // The rows keep 4-byte worker ids, so 2^32 workers is the most step 1
  // takes; the check runs before any per-worker array is sized.
  const VoteBatch votes{vote(0, 0, 1, true), vote(1, 0, 1, false)};
  EXPECT_THROW(discover_truth(votes, 2, (std::size_t{1} << 32) + 1), Error);
}

TEST(MajorityVoteTruth, SimpleAverages) {
  const VoteBatch votes{vote(0, 0, 1, true), vote(1, 0, 1, true),
                        vote(2, 0, 1, false), vote(3, 0, 1, false)};
  const auto truths = majority_vote_truth(votes, 2);
  ASSERT_EQ(truths.size(), 1u);
  EXPECT_DOUBLE_EQ(truths[0].x, 0.5);
}

TEST(TruthDiscovery, CalibratedQualityTracksTrueWorkerNoise) {
  // Statistical consistency: simulate workers with known error std-devs
  // and check the estimated calibrated quality is rank-correlated with
  // the true noise (better worker -> higher quality).
  Rng rng(4242);
  const std::size_t n = 30;
  const std::size_t m = 10;
  auto perm = rng.permutation(n);
  const Ranking truth(std::vector<VertexId>(perm.begin(), perm.end()));
  std::vector<WorkerProfile> workers;
  for (WorkerId k = 0; k < m; ++k) {
    // sigma ramps 0.0 .. 0.9: worker 0 is near-perfect, worker 9 awful.
    workers.push_back(WorkerProfile{k, 0.1 * static_cast<double>(k)});
  }
  const SimulatedCrowd crowd(truth, workers);
  const auto ta = generate_task_assignment(n, 300, rng);
  std::vector<Edge> tasks(ta.graph.edges().begin(), ta.graph.edges().end());
  const HitAssignment assignment(tasks, HitConfig{5, 6}, m, rng);
  const VoteBatch votes = crowd.collect(assignment, rng);

  const auto result = discover_truth(votes, n, m);
  // Spearman-style check: count pairwise inversions between true sigma
  // order and estimated quality order.
  std::size_t concordant = 0;
  std::size_t total = 0;
  for (WorkerId a = 0; a < m; ++a) {
    for (WorkerId b = a + 1; b < m; ++b) {
      ++total;  // a has lower sigma (better) than b by construction
      if (result.worker_quality[a] > result.worker_quality[b]) {
        ++concordant;
      }
    }
  }
  EXPECT_GT(static_cast<double>(concordant) / static_cast<double>(total),
            0.75);
  // The extremes must be clearly separated.
  EXPECT_GT(result.worker_quality[0], result.worker_quality[9] + 0.1);
}

TEST(TruthDiscovery, BeatsMajorityVoteWithSkewedQuality) {
  // 2 reliable workers vs 3 random-ish workers that happen to collude on a
  // few pairs: truth discovery should follow the reliable pair on the
  // contested tasks once their quality is established.
  VoteBatch votes;
  // 12 calibration tasks where the reliable workers (0,1) are consistent
  // and the noisy trio (2,3,4) is self-contradictory across tasks.
  for (VertexId i = 0; i < 12; ++i) {
    votes.push_back(vote(0, i, i + 1, true));
    votes.push_back(vote(1, i, i + 1, true));
    votes.push_back(vote(2, i, i + 1, i % 2 == 0));
    votes.push_back(vote(3, i, i + 1, i % 3 == 0));
    votes.push_back(vote(4, i, i + 1, i % 5 == 0));
  }
  // Contested task: reliable pair says true, noisy trio says false.
  votes.push_back(vote(0, 20, 21, true));
  votes.push_back(vote(1, 20, 21, true));
  votes.push_back(vote(2, 20, 21, false));
  votes.push_back(vote(3, 20, 21, false));
  votes.push_back(vote(4, 20, 21, false));

  const auto td = discover_truth(votes, 22, 5);
  const auto mv = majority_vote_truth(votes, 22);
  double td_x = -1.0;
  double mv_x = -1.0;
  for (const auto& t : td.truths) {
    if (t.task == Edge{20, 21}) td_x = t.x;
  }
  for (const auto& t : mv) {
    if (t.task == Edge{20, 21}) mv_x = t.x;
  }
  EXPECT_LT(mv_x, 0.5);  // raw majority says false
  EXPECT_GT(td_x, mv_x);  // quality-weighting pulls toward the reliable pair
}

}  // namespace
}  // namespace crowdrank
