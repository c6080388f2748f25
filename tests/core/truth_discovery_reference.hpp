// Reference Step 1: the all-rows CRH loop the engine ran before it split
// off the contested tasks, kept as the oracle for core/truth_discovery.cpp.
//
// It groups the batch with an ordered map keyed by canonical task, and
// runs every iteration's Eq. 4 over every task and Eq. 5 over every vote,
// serially. tests/core/test_truth_discovery_reference.cpp and
// test_determinism pin `discover_truth` to it bit for bit.
#pragma once

#include <cstddef>
#include <string>

#include "core/truth_discovery.hpp"
#include "crowd/vote.hpp"

namespace crowdrank {

/// Same contract as `discover_truth` on valid input; `index` receives
/// the grouping.
TruthDiscoveryResult discover_truth_reference(
    const VoteBatch& votes, std::size_t object_count,
    std::size_t worker_count, const TruthDiscoveryConfig& config,
    VoteIndex* index);

/// The first difference between `discover_truth`'s output and the
/// reference's, or "" when they agree bit for bit: every truth's task,
/// x and vote count, both worker vectors, `iterations`, `converged` and
/// the rows of the index. Also checks `contested_tasks` against the
/// reference index's tasks whose votes disagree, and
/// 1 <= full_passes <= iterations.
std::string step1_mismatch(const TruthDiscoveryResult& got,
                           const VoteIndex& got_index,
                           const TruthDiscoveryResult& want,
                           const VoteIndex& want_index);

}  // namespace crowdrank
