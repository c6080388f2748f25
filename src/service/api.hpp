// The stable crowdrank::api facade: one Request/Response pair wrapping
// the validate → harden → infer sequence (plus, since the artifact PR,
// the result cache's warm path). Declarations live here in src/service/
// — the facade is implemented on the service layer's shared rank entry
// (service/rank_entry.hpp), which RankingService executes too, so the
// two paths cannot drift — and the umbrella header (src/crowdrank.hpp)
// re-exports them for external consumers.
//
//     crowdrank::api::Request request;
//     request.votes = ...;            // raw (possibly messy) vote batch
//     request.object_count = n;
//     crowdrank::api::Response response = crowdrank::api::rank(request);
//     if (response.ok()) use(response.ranking.order);
//
// `rank` never throws on malformed input: repairs and degradations are
// reported structurally (Response::outcome, Response::hardening), the
// same contract the batch service (service/service.hpp) gives each job.
//
// Warm serving: point `request.cache` at a service::ResultCache and a
// repeat of the same work returns the stored answer without running the
// engine; `cache_control` picks the per-request policy and the response
// carries full provenance (`served_from_cache`, `artifact_key`). The
// defaults (no cache) reproduce the cacheless behavior bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
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

namespace crowdrank::api {

/// Structured validation/configuration error: the facade's error currency
/// is core's ConfigError (field + message), never an exception.
using Error = ConfigError;

/// One ranking request. Defaults give the paper's pipeline configuration;
/// `repair` controls whether the input-hardening pass may drop/restrict
/// votes (turn it off to demand the batch be used exactly as given, which
/// restores the engine's strict-contract behavior).
struct Request {
  VoteBatch votes;
  /// Number of objects (0 = derive from the highest vote id).
  std::size_t object_count = 0;
  /// Number of workers (0 = derive from the batch).
  std::size_t worker_count = 0;
  std::uint64_t seed = 1;
  InferenceConfig inference;
  /// Apply the input-hardening pass (validate/repair/restrict) first.
  bool repair = true;
  service::HardeningPolicy hardening;
  /// Optional per-task worker assignment for smoothing. When null, the
  /// workers consulted per task are exactly those who voted on it.
  /// Assignment-carrying requests are never cached (the assignment is not
  /// part of the content key).
  const HitAssignment* assignment = nullptr;
  /// Optional result cache (caller-owned, must outlive the call). Null —
  /// the default — is exactly the historical cold path.
  service::ResultCache* cache = nullptr;
  service::CacheControl cache_control = service::CacheControl::Default;
};

/// The structured answer: a (possibly partial) ranking plus the full
/// degradation accounting. No exception escapes `rank`.
struct Response {
  service::JobOutcome outcome = service::JobOutcome::Failed;
  /// Stage the request ended in (Done on success).
  PipelineStage stage = PipelineStage::Validation;
  /// Detail for Rejected/Failed outcomes.
  std::string reason;
  /// Ranking over original object ids; `excluded` lists objects the
  /// evidence could not rank (empty on Completed).
  service::PartialRanking ranking;
  service::HardeningReport hardening;
  double log_probability = 0.0;
  /// Full engine output (step diagnostics) for the compact
  /// repaired batch; engaged only when `ok()` — and only on cold runs:
  /// a cache hit carries the deliverable, not engine internals (use
  /// CacheControl::Bypass to force a diagnostic run). It holds no n x n
  /// closure; to read one, set `request.inference.control` to a
  /// ClosureCapture (core/checkpoint.hpp), which copies it over the same
  /// compact ids. The capture fills only on a cold run that reaches
  /// Step 4: after a cache hit, or a job that ends before Step 4, its
  /// closure() stays 0 x 0 (check `!served_from_cache` or `rows() > 0`).
  std::optional<InferenceResult> inference;
  /// Validation errors (outcome Rejected when non-empty).
  std::vector<Error> errors;

  // Cache provenance (all-defaults when no cache was consulted).
  /// True when the answer came from the cache instead of the engine.
  bool served_from_cache = false;
  /// Hex content key of this work (set whenever a key was derived, hit
  /// or miss) — the artifact's disk-tier filename stem.
  std::string artifact_key;
  /// Payload schema version of the cached-result artifact kind.
  std::uint32_t artifact_schema_version = 0;

  bool ok() const {
    return outcome == service::JobOutcome::Completed ||
           outcome == service::JobOutcome::Degraded;
  }
};

/// Validates a request without running it: config range checks plus basic
/// batch shape checks. Empty result = admissible.
std::vector<Error> validate(const Request& request);

/// Runs the facade sequence (validate -> cache lookup -> harden -> infer)
/// with a fresh Rng seeded from `request.seed`.
Response rank(const Request& request);

/// As above but threading the caller's Rng — for harnesses that share one
/// generator across many calls (benches, simulations). A cache hit does
/// not draw from the Rng (it runs no engine), so harnesses interleaving
/// cached and uncached calls on one generator should use Bypass.
Response rank(const Request& request, Rng& rng);

}  // namespace crowdrank::api
