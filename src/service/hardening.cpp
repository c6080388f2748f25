#include "service/hardening.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

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
  // (i,j,prefers_i) and (j,i,!prefers_i) count as one direction. One sort
  // of (worker, task, batch index) records lays each group out in batch
  // order.
  if (policy.drop_duplicates || policy.drop_conflicting) {
    struct Answer {
      WorkerId worker;
      Edge task;
      std::size_t index;   ///< position in `kept`; unique, so it breaks ties
      unsigned direction;  ///< 1: task.first preferred, 2: task.second

      auto operator<=>(const Answer&) const = default;
    };
    std::vector<Answer> answers;
    answers.reserve(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
      const Vote& v = kept[k];
      const Edge task = Edge::canonical(v.i, v.j);
      const bool first_preferred = v.prefers_i == (v.i == task.first);
      answers.push_back({v.worker, task, k, first_preferred ? 1u : 2u});
    }
    std::sort(answers.begin(), answers.end());

    const auto same_group = [](const Answer& a, const Answer& b) {
      return a.worker == b.worker && a.task == b.task;
    };
    enum Verdict : std::uint8_t { kKeep, kDuplicate, kConflicting };
    std::vector<Verdict> verdict(kept.size(), kKeep);
    for (std::size_t lo = 0; lo < answers.size();) {
      std::size_t hi = lo;
      unsigned mask = 0;
      while (hi < answers.size() && same_group(answers[hi], answers[lo])) {
        mask |= answers[hi++].direction;
      }
      for (std::size_t k = lo; k < hi; ++k) {
        if (policy.drop_conflicting && mask == 3u) {
          verdict[answers[k].index] = kConflicting;
        } else if (policy.drop_duplicates && k > lo) {
          verdict[answers[k].index] = kDuplicate;
        }
      }
      lo = hi;
    }
    std::size_t next = 0;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      r.dropped_conflicting += verdict[k] == kConflicting ? 1 : 0;
      r.dropped_duplicate += verdict[k] == kDuplicate ? 1 : 0;
      if (verdict[k] == kKeep) {
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
  // Worker ids are arbitrary u64s, so they are ranked by sort, unique and
  // binary search, never used as an index. Object ids >= n pass through.
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
  batch.workers.reserve(kept.size());
  for (const Vote& v : kept) {
    batch.workers.push_back(v.worker);
  }
  std::sort(batch.workers.begin(), batch.workers.end());
  batch.workers.erase(std::unique(batch.workers.begin(), batch.workers.end()),
                      batch.workers.end());
  batch.workers.shrink_to_fit();
  const std::vector<WorkerId>& workers = batch.workers;
  batch.votes.reserve(kept.size());
  for (const Vote& v : kept) {
    const auto rank =
        std::lower_bound(workers.begin(), workers.end(), v.worker);
    const auto worker = static_cast<WorkerId>(rank - workers.begin());
    batch.votes.push_back(
        Vote{worker, compact_object(v.i), compact_object(v.j), v.prefers_i});
  }
  r.retained_votes = batch.votes.size();
  return batch;
}

}  // namespace crowdrank::service
