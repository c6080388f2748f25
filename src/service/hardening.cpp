#include "service/hardening.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/error.hpp"

namespace crowdrank::service {

namespace {

/// SplitMix64's finalizer: a bijection on 64-bit words that spreads every
/// input bit over the whole output.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// An open-addressing map from keys to 32-bit values, for keys the caller
/// keeps in its own arrays: each stored value names its key there, and the
/// caller's `same(value)` compares a probed key with the one looked up.
/// Linear probing at load <= 1/2; an 8-byte slot holds the top 32 bits of
/// the key's hash and value + 1 (0 marks an empty slot), so a probe reads
/// the caller's key only when those hash bits match. The table takes at
/// most 32 bytes per stored key.
class FlatIndex {
 public:
  /// The value stored for the key that hashes to `hash` and satisfies
  /// `same`; stores and returns `fresh` when there is none.
  template <typename Same>
  std::uint32_t find_or_add(std::uint64_t hash, std::uint32_t fresh,
                            Same same) {
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
    }
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t at = home(tag);; at = (at + 1) & (slots_.size() - 1)) {
      const std::uint64_t slot = slots_[at];
      if (slot == 0) {
        slots_[at] = (std::uint64_t{tag} << 32) | (std::uint64_t{fresh} + 1);
        ++size_;
        return fresh;
      }
      const auto value = static_cast<std::uint32_t>(slot - 1);
      if ((slot >> 32) == tag && same(value)) {
        return value;
      }
    }
  }

 private:
  /// A key's first slot: the top bits of its tag.
  std::size_t home(std::uint32_t tag) const { return tag >> (32 - bits_); }

  void grow() {
    const std::vector<std::uint64_t> old = std::move(slots_);
    bits_ = old.empty() ? 4 : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, 0);
    for (const std::uint64_t slot : old) {
      if (slot == 0) continue;
      std::size_t at = home(static_cast<std::uint32_t>(slot >> 32));
      while (slots_[at] != 0) {
        at = (at + 1) & (slots_.size() - 1);
      }
      slots_[at] = slot;
    }
  }

  std::vector<std::uint64_t> slots_;
  unsigned bits_ = 0;
  std::size_t size_ = 0;
};

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
    // Smaller root wins so the representative is the least member id —
    // this keeps the largest-component tie-break deterministic.
    if (b < a) {
      std::swap(a, b);
    }
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

HardenedBatch harden_votes(const VoteBatch& votes, std::size_t object_count,
                           const HardeningPolicy& policy,
                           HardeningReport* report) {
  HardeningReport local;
  HardeningReport& r = report != nullptr ? *report : local;
  r = HardeningReport{};
  r.input_votes = votes.size();

  // Resolve the object universe: the caller's hint, or the highest id
  // mentioned by any vote.
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

  // Pass 2 — per-(worker, task) repairs. A worker answering the same task
  // in both directions contradicts themselves: all their votes on that
  // task are dropped. Repeated same-direction answers keep only the
  // first occurrence. The direction is relative to the canonical edge so
  // (i,j,prefers_i) and (j,i,!prefers_i) count as one direction. One
  // table keyed by (worker, task) names each vote's group by the group's
  // first vote, so the verdicts follow from one pass in batch order.
  CR_EXPECTS(kept.size() < (std::size_t{1} << 31),
             "hardening takes fewer than 2^31 votes");
  if (policy.drop_duplicates || policy.drop_conflicting) {
    FlatIndex groups;
    std::vector<std::uint32_t> first_of(kept.size());
    std::vector<std::uint8_t> directions(kept.size(), 0);  // by first vote
    for (std::size_t k = 0; k < kept.size(); ++k) {
      const Vote& v = kept[k];
      const Edge task = Edge::canonical(v.i, v.j);
      const std::uint64_t hash =
          mix64(v.worker ^ mix64(task.first ^ mix64(task.second)));
      const std::uint32_t first = groups.find_or_add(
          hash, static_cast<std::uint32_t>(k), [&](std::uint32_t f) {
            const Vote& earlier = kept[f];
            return earlier.worker == v.worker &&
                   Edge::canonical(earlier.i, earlier.j) == task;
          });
      first_of[k] = first;
      // 1: task.first preferred, 2: task.second.
      directions[first] |= v.prefers_i == (v.i == task.first) ? 1 : 2;
    }
    std::size_t next = 0;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (policy.drop_conflicting && directions[first_of[k]] == 3) {
        ++r.dropped_conflicting;
      } else if (policy.drop_duplicates && first_of[k] != k) {
        ++r.dropped_duplicate;
      } else {
        kept[next++] = kept[k];
      }
    }
    kept.resize(next);
  }

  // Pass 3 — connectivity: a ranking can only relate objects connected by
  // evidence (smoothing makes every retained edge bidirectional, so
  // undirected connectivity is the right reachability notion). Restrict
  // to the largest component; ties break toward the component containing
  // the smallest object id. Votes naming an object >= n (kept only with
  // drop_out_of_range off) join no component.
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
    std::vector<std::size_t> component_size(n, 0);  // by root
    for (std::size_t v = 0; v < n; ++v) {
      if (touched[v]) {
        ++component_size[sets.find(v)];
      }
    }
    std::size_t best_root = n;
    std::size_t best_size = 0;
    for (std::size_t root = 0; root < n; ++root) {
      r.component_count += component_size[root] > 0 ? 1 : 0;
      if (component_size[root] > best_size) {  // first max in root order
        best_root = root;
        best_size = component_size[root];
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

  // Compaction: rewrite object and worker ids onto dense ascending
  // ranges. Worker identity does not survive into the ranking, so the
  // remap is invisible to callers; the report keeps the original ids.
  // Worker ids are arbitrary u64s, never used as an index: a table
  // numbers the distinct ids by first appearance, and only that set is
  // sorted. Object ids >= n pass through.
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
  const auto compact_object = [&](VertexId id) {
    return id < n ? object_map[id] : id;
  };
  FlatIndex worker_index;
  std::vector<WorkerId> seen;  // distinct workers, first appearance first
  std::vector<std::uint32_t> seen_of(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const WorkerId worker = kept[k].worker;
    seen_of[k] = worker_index.find_or_add(
        mix64(worker), static_cast<std::uint32_t>(seen.size()),
        [&](std::uint32_t s) { return seen[s] == worker; });
    if (seen_of[k] == seen.size()) {
      seen.push_back(worker);
    }
  }
  batch.workers = seen;
  std::sort(batch.workers.begin(), batch.workers.end());
  std::vector<WorkerId> compact_worker(seen.size());
  for (std::size_t s = 0; s < seen.size(); ++s) {
    compact_worker[s] = static_cast<WorkerId>(
        std::lower_bound(batch.workers.begin(), batch.workers.end(), seen[s]) -
        batch.workers.begin());
  }
  batch.votes.reserve(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const Vote& v = kept[k];
    batch.votes.push_back(Vote{compact_worker[seen_of[k]],
                               compact_object(v.i), compact_object(v.j),
                               v.prefers_i});
  }
  r.retained_votes = batch.votes.size();
  return batch;
}

}  // namespace crowdrank::service
