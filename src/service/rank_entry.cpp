#include "service/rank_entry.hpp"

#include <algorithm>
#include <utility>

#include "analysis/invariants.hpp"
#include "util/error.hpp"

namespace crowdrank::service {

namespace {

/// Records the last stage the engine entered (for Failed reporting) and
/// forwards checkpoints to any caller-supplied controller.
class StageTracker final : public StageControl {
 public:
  explicit StageTracker(StageControl* inner) : inner_(inner) {}

  void checkpoint(const StageSnapshot& snapshot) override {
    if (snapshot.next != PipelineStage::Done) {
      last_ = snapshot.next;
    }
    if (inner_ != nullptr) {
      inner_->checkpoint(snapshot);
    }
  }

  PipelineStage last() const { return last_; }

 private:
  StageControl* inner_;
  PipelineStage last_ = PipelineStage::TruthDiscovery;
};

void apply_cached(const CachedResult& cached, RankOutcome& out) {
  out.outcome = cached.outcome;
  out.stage = cached.stage;
  out.reason = cached.reason;
  out.ranking = cached.ranking;
  out.hardening = cached.hardening;
  out.log_probability = cached.log_probability;
}

CachedResult to_cached(const RankOutcome& out) {
  CachedResult cached;
  cached.outcome = out.outcome;
  cached.stage = out.stage;
  cached.reason = out.reason;
  cached.ranking = out.ranking;
  cached.hardening = out.hardening;
  cached.log_probability = out.log_probability;
  return cached;
}

}  // namespace

std::vector<ConfigError> validate_rank_params(const RankParams& params,
                                              bool require_votes) {
  std::vector<ConfigError> errors = params.inference->validate();
  if (require_votes && params.votes->empty()) {
    errors.push_back({"votes", "batch is empty"});
  }
  if (params.assignment != nullptr && params.repair) {
    // Hardening remaps object/worker ids, which would silently desync the
    // assignment's task keys; demand the strict path instead.
    errors.push_back(
        {"assignment", "requires repair = false (hardening remaps ids)"});
  }
  if (params.cache_control == CacheControl::RequireHit &&
      params.cache == nullptr) {
    errors.push_back(
        {"cache_control", "require_hit needs a cache to serve from"});
  }
  return errors;
}

RankOutcome run_ranking(const RankParams& params, Rng& rng) {
  RankOutcome out;

  // -- warm path: key derivation and lookup before any pipeline work ----
  const bool cacheable = params.cache != nullptr &&
                         params.assignment == nullptr &&
                         params.cache_control != CacheControl::Bypass;
  CacheKey key;
  if (cacheable) {
    key = compute_cache_key(*params.votes, params.object_count,
                            params.worker_count, params.seed,
                            *params.inference, params.repair,
                            params.hardening);
    out.cache.consulted = true;
    out.cache.key_hex = key.hex();
    if (params.cache_control != CacheControl::Refresh) {
      if (std::optional<CachedResult> hit = params.cache->lookup(key)) {
        apply_cached(*hit, out);
        out.cache.served_from_cache = true;
        return out;
      }
    }
    if (params.cache_control == CacheControl::RequireHit) {
      out.outcome = JobOutcome::Rejected;
      out.stage = PipelineStage::Validation;
      out.reason = "cache: no stored result for key " + out.cache.key_hex +
                   " (cache_control = require_hit)";
      return out;
    }
  }

  // -- cold path: the historical validate-already-done harden -> infer --
  StageTracker tracker(params.control);
  try {
    VoteBatch hardened;
    std::vector<VertexId> object_map;  // compact -> original (empty = id)
    std::size_t object_count = params.object_count;
    std::size_t worker_count = params.worker_count;

    if (params.repair) {
      HardenedBatch batch =
          harden_votes(*params.votes, params.object_count, *params.hardening,
                       &out.hardening);
      out.ranking.excluded = out.hardening.excluded_objects;
      if (params.on_hardened) {
        params.on_hardened(out.hardening);
      }
      if (!batch.usable()) {
        out.outcome = JobOutcome::Failed;
        out.stage = PipelineStage::Hardening;
        out.reason =
            "batch unusable after hardening: fewer than two connected "
            "objects remain";
        return out;
      }
      object_count = batch.objects.size();
      // Compacted worker ids are dense: a caller's larger count would only
      // size step 1's per-worker arrays for workers no vote names.
      worker_count = batch.workers.size();
      hardened = std::move(batch.votes);
      object_map = std::move(batch.objects);
    } else {
      for (const Vote& v : *params.votes) {
        object_count = std::max({object_count, v.i + 1, v.j + 1});
        worker_count = std::max(worker_count, v.worker + 1);
      }
    }

    InferenceConfig inference = *params.inference;
    inference.control = &tracker;
    inference.check_invariants |= params.check_invariants;
    const InferenceEngine engine(inference);
    // The strict path reads the caller's batch in place. The hardened
    // batch is the job's own, and the engine releases it once step 1 has
    // indexed it. Both overloads give the same bits. An assignment comes
    // only with the strict path (validate_rank_params).
    if (params.repair) {
      out.inference = engine.infer(std::move(hardened), object_count,
                                   worker_count, rng);
    } else if (params.assignment != nullptr) {
      out.inference = engine.infer(*params.votes, object_count, worker_count,
                                   *params.assignment, rng);
    } else {
      out.inference =
          engine.infer(*params.votes, object_count, worker_count, rng);
    }

    out.ranking.order.assign(out.inference->ranking.order().begin(),
                             out.inference->ranking.order().end());
    if (!object_map.empty()) {
      for (VertexId& v : out.ranking.order) {
        v = object_map[v];
      }
    }
    out.log_probability = out.inference->log_probability;
    out.stage = PipelineStage::Done;
    out.outcome = out.ranking.complete() ? JobOutcome::Completed
                                         : JobOutcome::Degraded;

    // The mapped partial ranking must be a permutation of the retained
    // objects (the engine has already validated the compact ranking when
    // invariant checks are on).
    if (!object_map.empty() && (inference.check_invariants ||
                                analysis::invariant_checks_enabled())) {
      std::vector<VertexId> sorted = out.ranking.order;
      std::sort(sorted.begin(), sorted.end());
      if (sorted != object_map) {
        throw Error("service invariant violated: partial ranking is "
                    "not a permutation of the retained objects");
      }
    }
  } catch (const std::exception& e) {
    // JobInterrupt is deliberately not a std::exception, so a service
    // abort passes straight through to the executor's handler.
    out.outcome = JobOutcome::Failed;
    out.stage = tracker.last();
    out.reason = e.what();
    out.inference.reset();
  }

  if (cacheable && out.ok()) {
    params.cache->insert(key, to_cached(out));
    out.cache.stored = true;
  }
  return out;
}

}  // namespace crowdrank::service
