// Reference `harden_votes`: the original map-keyed hardening pass, kept as
// the oracle for the sorted-array pass in service/hardening.cpp.
//
// It groups votes by (worker, canonical task) in an ordered map, counts
// component sizes in a map keyed by union-find root and compacts worker
// ids through a map. The one departure from the original is the guard on
// votes naming an object >= n, which only survive pass 1 with
// `drop_out_of_range` off: they take no part in the component pass (the
// original indexed its per-object arrays with them) and their ids pass
// through compaction unchanged.
#pragma once

#include <cstddef>

#include "crowd/vote.hpp"
#include "service/hardening.hpp"

namespace crowdrank::service {

/// Same contract as `harden_votes`.
HardenedBatch harden_votes_reference(const VoteBatch& votes,
                                     std::size_t object_count,
                                     const HardeningPolicy& policy,
                                     HardeningReport* report);

}  // namespace crowdrank::service
