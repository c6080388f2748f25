// Stable content hashing of inference configuration.
//
// The service result cache (service/result_cache.hpp) keys a job by
// everything that can change its output: the votes, the counts, the seed,
// and the configuration. This module owns the configuration half of that
// key — it lives in core, next to the config structs themselves, so a new
// output-affecting field fails loudest here (the hash and the struct are
// reviewed together) instead of silently serving stale cache entries.
//
// Two rules decide what is hashed:
//  * Output-affecting tunables are hashed, always. That includes fields
//    like `propagation.spectral_horizon` (changes which pairs receive
//    evidence) and every Step-4 move toggle.
//  * Observe-only fields are excluded: `control` and `check_invariants`
//    never change a ranking (DESIGN.md pins this). A trace sink is no
//    config field at all (callers install one with trace::ScopedSink), so
//    a traced run shares cache entries with an untraced one.
//
// `kInferenceConfigHashSchema` versions the *derivation*: bump it whenever
// a field is added to (or removed from) the hashed set, or a default's
// output bits change, so every key derived under the old rules misses
// instead of serving a result a recomputation no longer reproduces.
#pragma once

#include "core/pipeline.hpp"
#include "util/hash.hpp"

namespace crowdrank {

/// Bump on any change to the set or order of hashed fields, or to the
/// output bits of a default. 2: step 3's auto horizon takes the Perron
/// limit, whose closure differs from the doubling's in its last bits.
inline constexpr std::uint64_t kInferenceConfigHashSchema = 2;

void hash_append(StableHash& hash, const TruthDiscoveryConfig& config);
void hash_append(StableHash& hash, const SmoothingConfig& config);
void hash_append(StableHash& hash, const PropagationConfig& config);
void hash_append(StableHash& hash, const SapsConfig& config);
void hash_append(StableHash& hash, const TapsConfig& config);

/// The output-affecting subset of a full InferenceConfig (prefixed with
/// kInferenceConfigHashSchema). Excludes control/check_invariants per the
/// rules above.
void hash_append(StableHash& hash, const InferenceConfig& config);

}  // namespace crowdrank
