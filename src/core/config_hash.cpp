#include "core/config_hash.hpp"

namespace crowdrank {

void hash_append(StableHash& hash, const TruthDiscoveryConfig& config) {
  hash.add_u64(config.max_iterations);
  hash.add_double(config.tolerance);
  hash.add_double(config.alpha);
  hash.add_bool(config.use_quality_weighting);
  hash.add_double(config.deviation_floor);
}

void hash_append(StableHash& hash, const SmoothingConfig& config) {
  hash.add_u32(static_cast<std::uint32_t>(config.mode));
  hash.add_double(config.min_mass);
  hash.add_double(config.max_mass);
}

void hash_append(StableHash& hash, const PropagationConfig& config) {
  hash.add_u32(static_cast<std::uint32_t>(config.mode));
  hash.add_u32(static_cast<std::uint32_t>(config.aggregation));
  hash.add_u64(config.spectral_horizon);
  hash.add_u64(config.max_length);
  hash.add_double(config.alpha);
  hash.add_double(config.completeness_floor);
}

void hash_append(StableHash& hash, const SapsConfig& config) {
  hash.add_u64(config.iterations);
  hash.add_double(config.initial_temperature);
  hash.add_double(config.cooling_rate);
  hash.add_u64(config.restarts);
  hash.add_bool(config.paper_mode);
  hash.add_u32(static_cast<std::uint32_t>(config.init_mode));
  hash.add_bool(config.use_rotate);
  hash.add_bool(config.use_reverse);
  hash.add_bool(config.use_swap);
}

void hash_append(StableHash& hash, const TapsConfig& config) {
  hash.add_u64(config.max_expansions);
  hash.add_bool(config.collect_ties);
  hash.add_double(config.tie_tolerance);
}

void hash_append(StableHash& hash, const InferenceConfig& config) {
  hash.add_u64(kInferenceConfigHashSchema);
  hash_append(hash, config.truth_discovery);
  hash_append(hash, config.smoothing);
  hash_append(hash, config.propagation);
  hash.add_u32(static_cast<std::uint32_t>(config.search));
  hash_append(hash, config.saps);
  hash_append(hash, config.taps);
  // control and check_invariants are observe-only (checked and unchecked
  // runs are pinned bitwise-identical) and never enter the key.
}

}  // namespace crowdrank
