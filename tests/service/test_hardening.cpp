// Unit tests for the input-hardening pass (service/hardening.hpp):
// every repair is applied, counted, and deterministic, and the pass agrees
// field for field with the map-keyed reference under every policy.
#include "service/hardening.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "crowd/vote.hpp"
#include "hardening_reference.hpp"
#include "util/rng.hpp"

namespace crowdrank::service {
namespace {

/// All-pairs consistent batch: every worker prefers lower ids.
VoteBatch clean_batch(std::size_t n, std::size_t workers) {
  VoteBatch votes;
  for (WorkerId w = 0; w < workers; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, true});
      }
    }
  }
  return votes;
}

TEST(HardeningTest, CleanBatchPassesThroughUntouched) {
  const VoteBatch votes = clean_batch(5, 3);
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 5, {}, &report);

  EXPECT_TRUE(batch.usable());
  EXPECT_EQ(batch.votes, votes);  // ids already dense: identity remap
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(batch.workers, (std::vector<WorkerId>{0, 1, 2}));
  EXPECT_FALSE(report.repaired());
  EXPECT_TRUE(report.full_coverage());
  EXPECT_EQ(report.retained_votes, votes.size());
  EXPECT_EQ(report.component_count, 1u);
}

TEST(HardeningTest, DropsOutOfRangeAndSelfVotes) {
  VoteBatch votes = clean_batch(4, 2);
  votes.push_back(Vote{0, 0, 9, true});  // unknown object
  votes.push_back(Vote{1, 7, 0, true});  // unknown object
  votes.push_back(Vote{0, 2, 2, true});  // self comparison
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 4, {}, &report);

  EXPECT_EQ(report.dropped_out_of_range, 2u);
  EXPECT_EQ(report.dropped_self, 1u);
  EXPECT_EQ(batch.votes.size(), votes.size() - 3);
  EXPECT_TRUE(report.full_coverage());
}

TEST(HardeningTest, DropsDuplicatesKeepingFirstOccurrence) {
  VoteBatch votes = clean_batch(3, 1);
  votes.push_back(Vote{0, 0, 1, true});  // repeat of the first answer
  votes.push_back(Vote{0, 1, 0, false});  // same answer, flipped spelling
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 3, {}, &report);

  EXPECT_EQ(report.dropped_duplicate, 2u);
  EXPECT_EQ(batch.votes.size(), clean_batch(3, 1).size());
}

TEST(HardeningTest, ConflictingAnswersDropAllVotesOnThatTask) {
  VoteBatch votes = clean_batch(3, 2);
  // Worker 0 contradicts their own (0,1) answer.
  votes.push_back(Vote{0, 0, 1, false});
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 3, {}, &report);

  // Both directions of worker 0's (0,1) answers are gone; worker 1's
  // votes survive, so connectivity and coverage are intact.
  EXPECT_EQ(report.dropped_conflicting, 2u);
  EXPECT_EQ(batch.votes.size(), votes.size() - 2);
  EXPECT_TRUE(report.full_coverage());
}

TEST(HardeningTest, RestrictsToLargestComponentAndCompacts) {
  // Island A = {0,1,2} (two workers), island B = {5,6} (one worker);
  // object 3 and 4 are never compared at all.
  VoteBatch votes;
  for (WorkerId w = 0; w < 2; ++w) {
    votes.push_back(Vote{w, 0, 1, true});
    votes.push_back(Vote{w, 1, 2, true});
  }
  votes.push_back(Vote{7, 5, 6, true});
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 7, {}, &report);

  EXPECT_EQ(report.component_count, 2u);
  EXPECT_EQ(report.dropped_disconnected, 1u);
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(report.excluded_objects, (std::vector<VertexId>{3, 4, 5, 6}));
  // Worker ids are compacted in ascending order of the original id.
  EXPECT_EQ(batch.workers, (std::vector<WorkerId>{0, 1}));
  for (const Vote& v : batch.votes) {
    EXPECT_LT(v.i, batch.objects.size());
    EXPECT_LT(v.j, batch.objects.size());
    EXPECT_LT(v.worker, batch.workers.size());
  }
}

TEST(HardeningTest, LargestComponentTieBreaksTowardSmallestMember) {
  // Two components of equal size; {0,1} must win over {2,3}.
  VoteBatch votes{Vote{0, 2, 3, true}, Vote{0, 0, 1, true}};
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 4, {}, &report);
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(report.excluded_objects, (std::vector<VertexId>{2, 3}));
}

TEST(HardeningTest, DerivesObjectUniverseFromVoteIds) {
  VoteBatch votes{Vote{0, 3, 7, true}, Vote{0, 7, 3, false}};
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 0, {}, &report);
  EXPECT_EQ(report.requested_objects, 8u);
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{3, 7}));
  // The flipped spelling is the same answer: one duplicate dropped.
  EXPECT_EQ(report.dropped_duplicate, 1u);
  EXPECT_TRUE(batch.usable());
}

TEST(HardeningTest, EmptyAndUnusableBatches) {
  HardeningReport report;
  EXPECT_FALSE(harden_votes({}, 5, {}, &report).usable());
  EXPECT_EQ(report.retained_votes, 0u);

  // Only self votes: nothing usable survives.
  const VoteBatch selfs{Vote{0, 1, 1, true}, Vote{1, 2, 2, false}};
  EXPECT_FALSE(harden_votes(selfs, 5, {}, &report).usable());
  EXPECT_EQ(report.dropped_self, 2u);
}

TEST(HardeningTest, PolicySwitchesDisableIndividualRepairs) {
  VoteBatch votes = clean_batch(3, 1);
  votes.push_back(Vote{0, 0, 1, true});  // duplicate
  HardeningPolicy policy;
  policy.drop_duplicates = false;
  HardeningReport report;
  const HardenedBatch batch = harden_votes(votes, 3, policy, &report);
  EXPECT_EQ(report.dropped_duplicate, 0u);
  EXPECT_EQ(batch.votes.size(), votes.size());
}

TEST(HardeningTest, DeterministicAcrossRepeatedRuns) {
  VoteBatch votes = clean_batch(6, 3);
  votes.push_back(Vote{0, 0, 11, true});
  votes.push_back(Vote{2, 4, 4, true});
  votes.push_back(Vote{1, 0, 1, false});  // conflict with clean batch
  HardeningReport first_report;
  const HardenedBatch first = harden_votes(votes, 6, {}, &first_report);
  HardeningReport second_report;
  const HardenedBatch second = harden_votes(votes, 6, {}, &second_report);
  EXPECT_EQ(first.votes, second.votes);
  EXPECT_EQ(first.objects, second.objects);
  EXPECT_EQ(first.workers, second.workers);
  EXPECT_EQ(first_report.excluded_objects, second_report.excluded_objects);
}

TEST(HardeningTest, OutOfRangeVotesKeptByPolicyJoinNoComponent) {
  HardeningPolicy policy;
  policy.drop_out_of_range = false;
  const VoteBatch votes{Vote{0, 0, 1, true}, Vote{1, 1, 9, true},
                        Vote{0, 2, 9, false}};
  HardeningReport report;
  HardenedBatch batch = harden_votes(votes, 3, policy, &report);
  EXPECT_EQ(report.dropped_disconnected, 2u);
  EXPECT_EQ(batch.votes, (VoteBatch{Vote{0, 0, 1, true}}));
  EXPECT_EQ(report.excluded_objects, (std::vector<VertexId>{2}));

  // Without the component restriction they survive with their ids intact;
  // object 2 has no compact image and maps to the universe size.
  policy.restrict_to_largest_component = false;
  batch = harden_votes(votes, 3, policy, &report);
  EXPECT_EQ(batch.votes, (VoteBatch{Vote{0, 0, 1, true}, Vote{1, 1, 9, true},
                                    Vote{0, 3, 9, false}}));
  EXPECT_EQ(batch.objects, (std::vector<VertexId>{0, 1}));
}

constexpr WorkerId kTopWorker = std::numeric_limits<WorkerId>::max();
constexpr VertexId kTopVertex = std::numeric_limits<VertexId>::max();

/// How `adversarial_batch` draws a batch.
struct BatchShape {
  std::size_t votes = 0;  ///< exact size; 0 draws one below 120 (or none)
  double repeat = 0.25;   ///< chance a vote repeats an earlier answer
  double flip = 0.3;      ///< chance a repeat flips its preference
  /// 0: workers from a five-id pool; k: k ids from 0 up and k below
  /// UINT64_MAX.
  std::size_t workers = 0;
};

/// A seeded adversarial batch: worker ids that include 0 and reach
/// UINT64_MAX, votes inside equal-size blocks of objects (so components
/// tie on size) with the odd cross-block vote, self votes, out-of-range
/// ids up to SIZE_MAX, and repeats of earlier answers in the same or the
/// flipped spelling, agreeing or conflicting.
VoteBatch adversarial_batch(Rng& rng, std::size_t n,
                            const BatchShape& shape = {}) {
  const WorkerId pool[] = {0, 7, WorkerId{1} << 40, kTopWorker - 1, kTopWorker};
  const std::size_t block = 1 + rng.uniform_index(std::min<std::size_t>(n, 6));
  std::size_t count = shape.votes;
  if (count == 0) {
    count = rng.bernoulli(0.05) ? 0 : rng.uniform_index(120);
  }
  VoteBatch votes;
  votes.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (!votes.empty() && rng.bernoulli(shape.repeat)) {
      Vote again = votes[rng.uniform_index(votes.size())];
      if (rng.bernoulli(0.5)) {
        std::swap(again.i, again.j);
        again.prefers_i = !again.prefers_i;
      }
      if (rng.bernoulli(shape.flip)) {
        again.prefers_i = !again.prefers_i;
      }
      votes.push_back(again);
      continue;
    }
    const VertexId base = rng.uniform_index(n) / block * block;
    const WorkerId worker =
        shape.workers == 0 ? pool[rng.uniform_index(std::size(pool))]
        : rng.bernoulli(0.5) ? rng.uniform_index(shape.workers)
                             : kTopWorker - rng.uniform_index(shape.workers);
    Vote v{worker, std::min(n - 1, base + rng.uniform_index(block)),
           std::min(n - 1, base + rng.uniform_index(block)),
           rng.bernoulli(0.5)};
    if (rng.bernoulli(0.05)) {
      v.j = rng.uniform_index(n);  // may bridge two blocks
    }
    if (rng.bernoulli(0.05)) {
      v.i = rng.bernoulli(0.5) ? n + rng.uniform_index(3) : kTopVertex;
    }
    votes.push_back(v);
  }
  return votes;
}

void expect_same_as_reference(const VoteBatch& votes,
                              std::size_t object_count,
                              const HardeningPolicy& policy) {
  HardeningReport report;
  const HardenedBatch batch =
      harden_votes(votes, object_count, policy, &report);
  HardeningReport want_report;
  const HardenedBatch want =
      harden_votes_reference(votes, object_count, policy, &want_report);
  EXPECT_EQ(batch.votes, want.votes);
  EXPECT_EQ(batch.objects, want.objects);
  EXPECT_EQ(batch.workers, want.workers);
  EXPECT_EQ(report.input_votes, want_report.input_votes);
  EXPECT_EQ(report.retained_votes, want_report.retained_votes);
  EXPECT_EQ(report.dropped_out_of_range, want_report.dropped_out_of_range);
  EXPECT_EQ(report.dropped_self, want_report.dropped_self);
  EXPECT_EQ(report.dropped_duplicate, want_report.dropped_duplicate);
  EXPECT_EQ(report.dropped_conflicting, want_report.dropped_conflicting);
  EXPECT_EQ(report.dropped_disconnected, want_report.dropped_disconnected);
  EXPECT_EQ(report.requested_objects, want_report.requested_objects);
  EXPECT_EQ(report.component_count, want_report.component_count);
  EXPECT_EQ(report.excluded_objects, want_report.excluded_objects);
}

HardeningPolicy policy_from_bits(unsigned bits) {
  HardeningPolicy policy;
  policy.drop_out_of_range = (bits & 1u) != 0;
  policy.drop_self_votes = (bits & 2u) != 0;
  policy.drop_duplicates = (bits & 4u) != 0;
  policy.drop_conflicting = (bits & 8u) != 0;
  policy.restrict_to_largest_component = (bits & 16u) != 0;
  return policy;
}

TEST(HardeningTest, MatchesTheReferenceUnderEveryPolicy) {
  // Batches showing each defect under the default policy.
  std::size_t empty = 0;
  std::size_t duplicates = 0;
  std::size_t conflicts = 0;
  std::size_t selfs = 0;
  std::size_t out_of_range = 0;
  std::size_t split = 0;
  std::size_t top_workers = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.uniform_index(40);
    const VoteBatch votes = adversarial_batch(rng, n);
    HardeningReport report;
    const HardenedBatch batch = harden_votes(votes, n, {}, &report);
    empty += votes.empty() ? 1 : 0;
    duplicates += report.dropped_duplicate > 0 ? 1 : 0;
    conflicts += report.dropped_conflicting > 0 ? 1 : 0;
    selfs += report.dropped_self > 0 ? 1 : 0;
    out_of_range += report.dropped_out_of_range > 0 ? 1 : 0;
    split += report.component_count > 1 ? 1 : 0;
    if (!batch.workers.empty() && batch.workers.back() == kTopWorker) {
      ++top_workers;
    }
    for (unsigned bits = 0; bits < 32; ++bits) {
      SCOPED_TRACE(std::to_string(seed) + "/" + std::to_string(bits));
      expect_same_as_reference(votes, 0, policy_from_bits(bits));
      expect_same_as_reference(votes, n, policy_from_bits(bits));
    }
  }
  EXPECT_GE(empty, 2u);
  EXPECT_GE(duplicates, 2u);
  EXPECT_GE(conflicts, 2u);
  EXPECT_GE(selfs, 2u);
  EXPECT_GE(out_of_range, 2u);
  EXPECT_GE(split, 2u);
  EXPECT_GE(top_workers, 2u);
  for (unsigned bits = 0; bits < 32; ++bits) {
    expect_same_as_reference({}, 0, policy_from_bits(bits));
    expect_same_as_reference({}, 5, policy_from_bits(bits));
  }

  // Batches where most votes repeat an earlier (worker, task) answer: in
  // one direction (every repeat agrees, in either spelling), then in both.
  for (const double flip : {0.0, 0.5}) {
    std::size_t total = 0;
    std::size_t duplicate = 0;
    std::size_t conflicting = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      Rng rng(1000 + seed);
      const std::size_t n = 4 + rng.uniform_index(12);
      const VoteBatch votes = adversarial_batch(
          rng, n,
          {.votes = 200, .repeat = 0.8, .flip = flip, .workers = 100});
      HardeningReport report;
      harden_votes(votes, n, {}, &report);
      total += votes.size();
      duplicate += report.dropped_duplicate;
      conflicting += report.dropped_conflicting;
      for (unsigned bits = 0; bits < 32; ++bits) {
        SCOPED_TRACE(std::to_string(flip) + "/" + std::to_string(seed) + "/" +
                     std::to_string(bits));
        expect_same_as_reference(votes, 0, policy_from_bits(bits));
        expect_same_as_reference(votes, n, policy_from_bits(bits));
      }
    }
    EXPECT_GE(duplicate + conflicting, total / 3);
    if (flip == 0.0) {
      EXPECT_GT(duplicate, 20 * conflicting);
    } else {
      EXPECT_GT(conflicting, 10 * duplicate);
    }
  }

  // Object ids >= n, which drop_out_of_range = false keeps; with the
  // component restriction off too they reach compaction, next to worker
  // ids 0 and UINT64_MAX.
  {
    Rng rng(2024);
    const VoteBatch votes = adversarial_batch(
        rng, 8, {.votes = 300, .repeat = 0.5, .flip = 0.2, .workers = 3});
    const HardenedBatch batch =
        harden_votes(votes, 8, policy_from_bits(2 | 4 | 8));
    EXPECT_TRUE(std::any_of(
        batch.votes.begin(), batch.votes.end(),
        [](const Vote& v) { return v.i >= 8 || v.j >= 8; }));
    EXPECT_EQ(batch.workers.front(), 0u);
    EXPECT_EQ(batch.workers.back(), kTopWorker);
    for (unsigned bits = 0; bits < 32; ++bits) {
      SCOPED_TRACE("out of range/" + std::to_string(bits));
      expect_same_as_reference(votes, 0, policy_from_bits(bits));
      expect_same_as_reference(votes, 8, policy_from_bits(bits));
    }
  }

  // One worker's votes on two tasks that share a first object, interleaved
  // in batch order: its groups on (0, 1) and (0, 2) stay apart, so the
  // agreeing (0, 2) repeats are duplicates and only (0, 1) conflicts. A
  // second worker's votes on the same tasks open groups of their own.
  {
    const VoteBatch votes{
        Vote{5, 0, 1, true},  Vote{5, 2, 0, false}, Vote{6, 0, 2, true},
        Vote{5, 1, 0, true},  Vote{5, 0, 2, true},  Vote{6, 1, 0, false},
        Vote{5, 0, 2, true},  Vote{5, 1, 2, true},  Vote{6, 2, 0, false}};
    HardeningReport report;
    const HardenedBatch batch = harden_votes(votes, 3, {}, &report);
    EXPECT_EQ(report.dropped_conflicting, 2u);
    EXPECT_EQ(report.dropped_duplicate, 3u);
    EXPECT_EQ(batch.votes.size(), 4u);
    for (unsigned bits = 0; bits < 32; ++bits) {
      SCOPED_TRACE("one bucket/" + std::to_string(bits));
      expect_same_as_reference(votes, 0, policy_from_bits(bits));
      expect_same_as_reference(votes, 3, policy_from_bits(bits));
    }
  }

  // Object ids >= n that the policy keeps, in the same first-object
  // bucket as in-range votes, repeated and flipped, with ids far apart so
  // their order of first appearance differs from their order by value.
  {
    const VoteBatch votes{
        Vote{0, 2, 9, true},    Vote{0, 2, 3, true},   Vote{1, 9, 2, false},
        Vote{0, 3, 2, true},    Vote{1, 2, 7, false},  Vote{0, 9, 2, true},
        Vote{1, 2, 3, false},   Vote{2, 9, 7, true},   Vote{2, 7, 9, false},
        Vote{2, 9, 7, false},   Vote{1, 7, 2, true},   Vote{0, 1, 2, true},
        Vote{3, kTopVertex, 9, true}, Vote{3, 9, kTopVertex, true}};
    HardeningPolicy keep_out_of_range;
    keep_out_of_range.drop_out_of_range = false;
    keep_out_of_range.restrict_to_largest_component = false;
    HardeningReport report;
    const HardenedBatch batch =
        harden_votes(votes, 5, keep_out_of_range, &report);
    EXPECT_GT(report.dropped_conflicting, 0u);
    EXPECT_GT(report.dropped_duplicate, 0u);
    EXPECT_TRUE(std::any_of(batch.votes.begin(), batch.votes.end(),
                            [](const Vote& v) { return v.i == 9; }));
    for (unsigned bits = 0; bits < 32; ++bits) {
      SCOPED_TRACE("kept out of range/" + std::to_string(bits));
      expect_same_as_reference(votes, 5, policy_from_bits(bits));
    }
  }

  // 2^17 distinct worker ids, from 0 up and from UINT64_MAX down, each
  // with one answer and a third of them with a second one on the same
  // task, agreeing or not, so the worker table and the per-worker marks
  // span far more than one cache.
  {
    constexpr std::size_t kWide = std::size_t{1} << 17;
    Rng wide_rng(17);
    VoteBatch votes;
    for (std::size_t k = 0; k < kWide; ++k) {
      const WorkerId worker = k % 2 == 0 ? k / 2 : kTopWorker - k / 2;
      const VertexId i = wide_rng.uniform_index(400);
      const VertexId j = wide_rng.uniform_index(400);
      votes.push_back(Vote{worker, i, j, wide_rng.bernoulli(0.5)});
      if (wide_rng.bernoulli(1.0 / 3.0)) {
        votes.push_back(Vote{worker, j, i, wide_rng.bernoulli(0.5)});
      }
    }
    HardeningReport report;
    harden_votes(votes, 400, {}, &report);
    EXPECT_GT(report.dropped_conflicting, 1000u);
    EXPECT_GT(report.dropped_duplicate, 1000u);
    for (const unsigned bits : {0u, 12u, 31u}) {
      SCOPED_TRACE("2^17 workers/" + std::to_string(bits));
      expect_same_as_reference(votes, 400, policy_from_bits(bits));
    }
  }

  // One batch of 120k votes from 2 x 200 workers, so both tables grow
  // through many sizes.
  Rng rng(77);
  const VoteBatch big = adversarial_batch(
      rng, 3000,
      {.votes = 120'000, .repeat = 0.4, .flip = 0.2, .workers = 200});
  for (unsigned bits = 0; bits < 32; ++bits) {
    SCOPED_TRACE("120k/" + std::to_string(bits));
    expect_same_as_reference(big, 3000, policy_from_bits(bits));
  }
}

}  // namespace
}  // namespace crowdrank::service
