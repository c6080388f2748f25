// The one internal entry point for executing ranking work.
//
// Before the artifact PR, api::rank and RankingService::run_job each
// built their own validate/harden/infer plumbing; adding the result
// cache to both would have meant two key derivations that could drift
// apart — precisely the bug class a content-addressed cache cannot
// tolerate. `run_ranking` is now the single implementation both paths
// call:
//
//     cache lookup (per CacheControl) ──hit──> stored RankedResult
//         │ miss / no cache
//     harden (policy) -> infer (engine) -> map ids -> invariants
//         │ ok()
//     cache insert
//
// The callers keep their own personalities around it: the facade
// validates the request shape first and forwards its caller-supplied
// StageControl; the service polls its JobControl for the Hardening
// checkpoint, applies fault-plan vote mutations, and installs its trace
// sink around the job before delegating. Abort semantics are preserved exactly:
// `run_ranking` maps std::exception onto a structured Failed outcome but
// deliberately lets the service's JobInterrupt (not a std::exception)
// propagate to the executor that threw it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "crowd/hit.hpp"
#include "crowd/vote.hpp"
#include "service/hardening.hpp"
#include "service/job.hpp"
#include "service/result_cache.hpp"
#include "util/rng.hpp"

namespace crowdrank::service {

/// Everything one execution needs, borrowed from the caller (pointers
/// must outlive the call). Defaults reproduce the facade's defaults.
struct RankParams {
  const VoteBatch* votes = nullptr;           ///< required
  std::size_t object_count = 0;               ///< 0 = derive
  std::size_t worker_count = 0;               ///< 0 = derive
  std::uint64_t seed = 1;                     ///< cache-key component
  const InferenceConfig* inference = nullptr; ///< required
  bool repair = true;
  /// Required when `repair`; may stay null on the strict path (it never
  /// runs there and does not enter the cache key).
  const HardeningPolicy* hardening = nullptr;
  /// Strict-path (repair = false) per-task worker assignment. Requests
  /// carrying one are never cached.
  const HitAssignment* assignment = nullptr;
  /// Receives every engine stage checkpoint (the caller's controller may
  /// throw to abort between stages). Not consulted on a cache hit.
  StageControl* control = nullptr;
  /// ORed into the engine's invariant switch (service-level override).
  bool check_invariants = false;
  ResultCache* cache = nullptr;
  CacheControl cache_control = CacheControl::Default;
  /// Observe-only: fires right after the hardening pass with its report
  /// (the service wires telemetry here). Never fires on a cache hit.
  std::function<void(const HardeningReport&)> on_hardened;
};

/// What the cache layer did for one execution, for provenance fields.
struct CacheTrace {
  bool consulted = false;         ///< a content key was derived
  bool served_from_cache = false; ///< the answer is the stored artifact
  bool stored = false;            ///< this execution inserted its result
  std::string key_hex;            ///< hex content key ("" = no key)
};

/// The structured result both callers translate into their own currency
/// (api::Response / JobResult).
struct RankOutcome {
  JobOutcome outcome = JobOutcome::Failed;
  PipelineStage stage = PipelineStage::Validation;
  std::string reason;
  PartialRanking ranking;  ///< original object ids
  HardeningReport hardening;
  double log_probability = 0.0;
  /// Engine diagnostics; engaged only on successful cold runs.
  std::optional<InferenceResult> inference;
  CacheTrace cache;

  bool ok() const {
    return outcome == JobOutcome::Completed ||
           outcome == JobOutcome::Degraded;
  }
};

/// Admissibility checks shared by the facade and the service submit path.
/// `require_votes` adds the facade's empty-batch rejection (the service
/// historically lets an empty batch run and fail hardening, and keeps
/// that behavior).
std::vector<ConfigError> validate_rank_params(const RankParams& params,
                                              bool require_votes);

/// Executes the sequence above. Never throws except to propagate a
/// caller-controller abort (anything not derived from std::exception,
/// i.e. the service's JobInterrupt).
RankOutcome run_ranking(const RankParams& params, Rng& rng);

}  // namespace crowdrank::service
