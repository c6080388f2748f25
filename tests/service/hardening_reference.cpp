#include "hardening_reference.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace crowdrank::service {

namespace {

/// Union-find over object ids, used for the component restriction.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = i;
    }
  }

  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];  // path halving
      v = parent_[v];
    }
    return v;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return;
    }
    // Smaller root wins so the representative is the least member id.
    if (b < a) {
      std::swap(a, b);
    }
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

HardenedBatch harden_votes_reference(const VoteBatch& votes,
                                     std::size_t object_count,
                                     const HardeningPolicy& policy,
                                     HardeningReport* report) {
  HardeningReport local;
  HardeningReport& r = report != nullptr ? *report : local;
  r = HardeningReport{};
  r.input_votes = votes.size();

  std::size_t n = object_count;
  if (n == 0) {
    for (const Vote& v : votes) {
      n = std::max({n, v.i + 1, v.j + 1});
    }
  }
  r.requested_objects = n;

  // Pass 1 — per-vote filters: out-of-range and self votes.
  VoteBatch kept;
  kept.reserve(votes.size());
  for (const Vote& v : votes) {
    if (policy.drop_out_of_range && (v.i >= n || v.j >= n)) {
      ++r.dropped_out_of_range;
      continue;
    }
    if (policy.drop_self_votes && v.i == v.j) {
      ++r.dropped_self;
      continue;
    }
    kept.push_back(v);
  }

  // Pass 2 — per-(worker, task) repairs, keyed through ordered maps.
  if (policy.drop_duplicates || policy.drop_conflicting) {
    std::map<std::pair<WorkerId, Edge>, unsigned> direction_mask;
    for (const Vote& v : kept) {
      const Edge task = Edge::canonical(v.i, v.j);
      const bool first_preferred = v.prefers_i == (v.i == task.first);
      direction_mask[{v.worker, task}] |= first_preferred ? 1u : 2u;
    }
    std::map<std::pair<WorkerId, Edge>, bool> seen;
    VoteBatch deduped;
    deduped.reserve(kept.size());
    for (const Vote& v : kept) {
      const Edge task = Edge::canonical(v.i, v.j);
      const auto key = std::make_pair(v.worker, task);
      if (policy.drop_conflicting && direction_mask[key] == 3u) {
        ++r.dropped_conflicting;
        continue;
      }
      if (policy.drop_duplicates) {
        bool& already = seen[key];
        if (already) {
          ++r.dropped_duplicate;
          continue;
        }
        already = true;
      }
      deduped.push_back(v);
    }
    kept = std::move(deduped);
  }

  // Pass 3 — restrict to the largest component; ties break toward the
  // component containing the smallest object id.
  const auto in_range = [n](const Vote& v) { return v.i < n && v.j < n; };
  std::vector<bool> retained_object(n, false);
  if (n > 0 && !kept.empty()) {
    DisjointSets sets(n);
    std::vector<bool> touched(n, false);
    for (const Vote& v : kept) {
      if (in_range(v)) {
        sets.unite(v.i, v.j);
        touched[v.i] = true;
        touched[v.j] = true;
      }
    }
    std::map<std::size_t, std::size_t> component_size;
    for (std::size_t v = 0; v < n; ++v) {
      if (touched[v]) {
        ++component_size[sets.find(v)];
      }
    }
    r.component_count = component_size.size();
    std::size_t best_root = n;
    std::size_t best_size = 0;
    for (const auto& [root, size] : component_size) {
      if (size > best_size) {  // first max in ascending root order wins
        best_root = root;
        best_size = size;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      retained_object[v] =
          touched[v] &&
          (!policy.restrict_to_largest_component ||
           sets.find(v) == best_root);
    }
    if (policy.restrict_to_largest_component) {
      VoteBatch connected;
      connected.reserve(kept.size());
      for (const Vote& v : kept) {
        if (in_range(v) && retained_object[v.i] && retained_object[v.j]) {
          connected.push_back(v);
        } else {
          ++r.dropped_disconnected;
        }
      }
      kept = std::move(connected);
    }
  }

  // Compaction onto dense ascending ids.
  HardenedBatch batch;
  std::vector<VertexId> object_map(n, n);
  for (std::size_t v = 0; v < n; ++v) {
    if (retained_object[v]) {
      object_map[v] = batch.objects.size();
      batch.objects.push_back(v);
    } else {
      r.excluded_objects.push_back(v);
    }
  }
  const auto compact = [&](VertexId id) {
    return id < n ? object_map[id] : id;
  };
  std::map<WorkerId, WorkerId> worker_map;
  for (const Vote& v : kept) {
    worker_map.emplace(v.worker, 0);
  }
  for (auto& [original, compact_id] : worker_map) {
    compact_id = batch.workers.size();
    batch.workers.push_back(original);
  }
  batch.votes.reserve(kept.size());
  for (const Vote& v : kept) {
    batch.votes.push_back(Vote{worker_map.at(v.worker), compact(v.i),
                               compact(v.j), v.prefers_i});
  }
  r.retained_votes = batch.votes.size();
  return batch;
}

}  // namespace crowdrank::service
