// Input hardening: validate and repair a raw vote batch before inference.
//
// Real crowdsourced exports are messy: votes referencing unknown object
// ids, workers answering the same task twice (or both ways), self-
// comparisons, and task graphs that fall apart into disconnected islands.
// The inference pipeline assumes none of that — malformed batches used to
// surface as contract-violation throws (or silent nonsense) deep inside a
// stage. `harden_votes` runs first instead: it drops what cannot be used,
// restricts the batch to the largest connected component of the
// comparison graph, compacts object/worker ids to the dense 0..k-1 range
// the engine expects, and reports every repair in a machine-readable
// `HardeningReport` so a degraded job can explain exactly what was lost.
//
// The pass is deterministic: drops depend only on batch order and ids,
// the component tie-break is the smallest member id, and compaction maps
// ids in ascending order. It makes one copy of the batch and filters and
// rewrites it in place, with no sort over the votes: the copy carries a
// dense worker id per vote from one small table of the distinct worker
// ids, the votes are grouped by task with `group_pairs` and `fill_rows`
// (util/rows.hpp, the grouping step 1 uses), each (worker, task) group is
// read off its task's row with a mark per worker, component sizes are
// counted per union-find root, and only the distinct surviving worker ids
// are sorted. Beyond the copy and the per-worker tables, pass 2 needs
// at most 17 bytes per vote and 12 per object. Batches hold fewer than
// 2^31 votes.
// tests/service/hardening_reference.* keeps the original map-keyed pass
// as the oracle it is checked against.
#pragma once

#include <cstddef>
#include <vector>

#include "crowd/vote.hpp"
#include "graph/types.hpp"

namespace crowdrank::service {

/// Which repairs to apply. All on by default; switching one off lets the
/// corresponding defect flow through to the engine (which may throw —
/// callers opting out take back the crash risk hardening removes).
struct HardeningPolicy {
  /// Votes naming objects >= n. When off, such votes join no component
  /// (so the component restriction drops them as disconnected) and any
  /// that remain keep their out-of-range ids through compaction.
  bool drop_out_of_range = true;
  bool drop_self_votes = true;     ///< votes with i == j
  bool drop_duplicates = true;     ///< repeated same-direction answers
  bool drop_conflicting = true;    ///< one worker voting both directions
  bool restrict_to_largest_component = true;
};

/// Machine-readable degradation report: what came in, what survived, and
/// why everything else was dropped.
struct HardeningReport {
  std::size_t input_votes = 0;
  std::size_t retained_votes = 0;
  std::size_t dropped_out_of_range = 0;
  std::size_t dropped_self = 0;
  std::size_t dropped_duplicate = 0;
  std::size_t dropped_conflicting = 0;
  std::size_t dropped_disconnected = 0;
  /// The requested object universe (the n hint, or max id + 1).
  std::size_t requested_objects = 0;
  /// Connected components of the usable comparison graph (isolated,
  /// never-compared objects are not counted as components).
  std::size_t component_count = 0;
  /// Objects of the requested universe that the retained batch cannot
  /// rank (never compared, or outside the largest component). Ascending.
  std::vector<VertexId> excluded_objects;

  friend bool operator==(const HardeningReport&,
                         const HardeningReport&) = default;

  bool repaired() const {
    return dropped_out_of_range + dropped_self + dropped_duplicate +
               dropped_conflicting + dropped_disconnected >
           0;
  }
  bool full_coverage() const { return excluded_objects.empty(); }
};

/// The repaired batch, rewritten onto dense ids. `objects[c]` /
/// `workers[c]` map each compact id back to the original; both ascend.
struct HardenedBatch {
  VoteBatch votes;                 ///< compact object and worker ids
  std::vector<VertexId> objects;   ///< compact -> original object id
  std::vector<WorkerId> workers;   ///< compact -> original worker id

  /// True when the batch can support any ranking at all.
  bool usable() const { return objects.size() >= 2 && !votes.empty(); }
};

/// Runs the hardening pass. `object_count` is the requested universe size
/// (0 = derive from the batch); `report` (optional) receives the full
/// degradation accounting. Never throws on malformed input — an
/// unusable batch simply comes back with `usable() == false`.
HardenedBatch harden_votes(const VoteBatch& votes, std::size_t object_count,
                           const HardeningPolicy& policy = {},
                           HardeningReport* report = nullptr);

}  // namespace crowdrank::service
