#include "service/hardening.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "util/error.hpp"
#include "util/rows.hpp"

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
  CR_EXPECTS(votes.size() < (std::size_t{1} << 31),
             "hardening takes fewer than 2^31 votes");

  // Resolve the object universe: the caller's hint, or the highest id
  // mentioned by any vote.
  std::size_t n = object_count;
  if (n == 0) {
    for (const Vote& v : votes) {
      n = std::max({n, v.i + 1, v.j + 1});
    }
  }
  r.requested_objects = n;

  // Pass 1 — per-vote filters: out-of-range and self votes. Each kept
  // vote is copied with a dense worker id, in order of first appearance,
  // and with any object id >= n (kept only with drop_out_of_range off)
  // renumbered n, n + 1, ... in the same order, so the later passes index
  // workers and objects directly. A bijection keeps every (worker, pair)
  // group, and a pair's two directions stay two directions, so the
  // verdicts hold; compaction maps the ids back.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  VoteBatch kept;
  kept.reserve(votes.size());
  FlatIndex worker_index;
  std::vector<WorkerId> workers;  // dense -> original worker id
  FlatIndex extra_index;
  std::vector<VertexId> extra_objects;  // (id - n) -> original object id
  const auto dense_object = [&](VertexId id) {
    if (id < n) {
      return id;
    }
    const std::uint32_t e = extra_index.find_or_add(
        mix64(id), static_cast<std::uint32_t>(extra_objects.size()),
        [&](std::uint32_t x) { return extra_objects[x] == id; });
    if (e == extra_objects.size()) {
      extra_objects.push_back(id);
    }
    return n + e;
  };
  for (const Vote& v : votes) {
    if (policy.drop_out_of_range && (v.i >= n || v.j >= n)) {
      ++r.dropped_out_of_range;
      continue;
    }
    if (policy.drop_self_votes && v.i == v.j) {
      ++r.dropped_self;
      continue;
    }
    const std::uint32_t s = worker_index.find_or_add(
        mix64(v.worker), static_cast<std::uint32_t>(workers.size()),
        [&](std::uint32_t x) { return workers[x] == v.worker; });
    if (s == workers.size()) {
      workers.push_back(v.worker);
    }
    const VertexId i = dense_object(v.i);
    kept.push_back(Vote{s, i, dense_object(v.j), v.prefers_i});
  }
  // Keeps vote k at position `next` of the batch being filtered in place;
  // until a vote is dropped, every kept vote is already in place.
  const auto keep = [&](std::size_t k, std::size_t& next) {
    if (next != k) {
      kept[next] = kept[k];
    }
    ++next;
  };

  // Pass 2 — per-(worker, task) repairs. A worker answering the same task
  // in both directions contradicts themselves: all their votes on that
  // task are dropped. Repeated same-direction answers keep only the
  // first occurrence. The direction is relative to the canonical edge so
  // (i,j,prefers_i) and (j,i,!prefers_i) count as one direction. The
  // votes are grouped by task and walked task by task in batch order, so
  // each (worker, task) group is named by its first vote in batch order.
  if ((policy.drop_duplicates || policy.drop_conflicting) && !kept.empty()) {
    const auto first_of = [&](std::size_t k) {
      return std::min(kept[k].i, kept[k].j);
    };
    const auto second_of = [&](std::size_t k) {
      return std::max(kept[k].i, kept[k].j);
    };
    std::vector<std::uint32_t> task_of;
    const std::size_t tasks = group_pairs(n + extra_objects.size(),
                                          kept.size(), first_of, second_of,
                                          task_of);
    std::vector<std::size_t> task_offsets;
    std::vector<std::uint32_t> by_task;
    fill_rows(
        tasks, kept.size(), [&](std::size_t k) { return task_of[k]; },
        [](std::size_t k) { return static_cast<std::uint32_t>(k); },
        task_offsets, by_task);
    // Per vote: bits 0-1 gather its group's directions (1: task.first
    // preferred, 2: task.second) on the group's first vote; bit 2 marks a
    // vote of a conflicting group, bit 3 one that is not its group's first.
    std::vector<std::uint8_t> verdict(kept.size(), 0);
    // The first vote of each worker on the task being walked (a mark left
    // from an earlier task is stale).
    std::vector<std::uint32_t> mark(workers.size(), kNone);
    for (std::size_t t = 0; t < tasks; ++t) {
      const std::span<const std::uint32_t> row(
          by_task.data() + task_offsets[t],
          task_offsets[t + 1] - task_offsets[t]);
      for (const std::uint32_t k : row) {
        std::uint32_t& first = mark[kept[k].worker];
        if (first == kNone || task_of[first] != t) {
          first = k;
        }
        const Vote& v = kept[k];
        verdict[first] |= v.prefers_i == (v.i <= v.j) ? 1 : 2;
      }
      for (const std::uint32_t k : row) {
        const std::uint32_t first = mark[kept[k].worker];
        verdict[k] |=
            ((verdict[first] & 3) == 3 ? 4 : 0) | (first != k ? 8 : 0);
      }
    }
    std::size_t next = 0;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (policy.drop_conflicting && (verdict[k] & 4) != 0) {
        ++r.dropped_conflicting;
      } else if (policy.drop_duplicates && (verdict[k] & 8) != 0) {
        ++r.dropped_duplicate;
      } else {
        keep(k, next);
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
      std::size_t next = 0;
      for (std::size_t k = 0; k < kept.size(); ++k) {
        const Vote& v = kept[k];
        if (in_range(v) && retained_object[v.i] && retained_object[v.j]) {
          keep(k, next);
        } else {
          ++r.dropped_disconnected;
        }
      }
      kept.resize(next);
    }
  }

  // Compaction: rewrite object and worker ids onto dense ascending
  // ranges, in place. Worker identity does not survive into the ranking,
  // so the remap is invisible to callers; the report keeps the original
  // ids. Worker ids are arbitrary u64s, never used as an index: only the
  // dense ids still in the batch are sorted by original id. Object ids
  // >= n get their original ids back.
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
  std::vector<std::uint32_t> compact_worker(workers.size(), kNone);
  for (const Vote& v : kept) {
    if (compact_worker[v.worker] == kNone) {
      compact_worker[v.worker] = 0;
      batch.workers.push_back(workers[v.worker]);
    }
  }
  std::sort(batch.workers.begin(), batch.workers.end());
  for (std::size_t s = 0; s < workers.size(); ++s) {
    if (compact_worker[s] != kNone) {
      compact_worker[s] = static_cast<std::uint32_t>(
          std::lower_bound(batch.workers.begin(), batch.workers.end(),
                           workers[s]) -
          batch.workers.begin());
    }
  }
  const auto compact_object = [&](VertexId id) {
    return id < n ? object_map[id] : extra_objects[id - n];
  };
  for (Vote& v : kept) {
    v.worker = compact_worker[v.worker];
    v.i = compact_object(v.i);
    v.j = compact_object(v.j);
  }
  batch.votes = std::move(kept);
  r.retained_votes = batch.votes.size();
  return batch;
}

}  // namespace crowdrank::service
