// Deterministic random number generation for all stochastic components.
//
// Every simulation, sampler, and heuristic in crowdrank takes an explicit
// `Rng&` (or a seed) so that experiments are reproducible bit-for-bit across
// runs and platforms. The engine is xoshiro256++ (Blackman & Vigna), seeded
// through SplitMix64 so that small or correlated user seeds still yield
// well-mixed state. We deliberately avoid std::mt19937 + std::*_distribution
// because libstdc++/libc++ produce different streams for the same seed; our
// distributions are implemented here and therefore portable.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace crowdrank {

/// xoshiro256++ engine with SplitMix64 seeding. Satisfies
/// std::uniform_random_bit_generator so it also works with <random> if a
/// caller insists, but prefer the member samplers for portability. The
/// engine step and the samplers SAPS calls in its annealing loop (7-10
/// draws per iteration) are defined inline here.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection for
  /// unbiased bounded generation.
  std::uint64_t uniform_index(std::uint64_t n) {
    CR_EXPECTS(n > 0, "uniform_index requires n > 0");
    // Lemire's nearly-divisionless unbiased bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller with caching of the second deviate.
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    const double clamped = std::clamp(p, 0.0, 1.0);
    return uniform() < clamped;
  }

  /// Exponential with the given rate (> 0).
  double exponential(double rate);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Random permutation of {0, 1, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples `k` distinct indices from [0, n) without replacement.
  /// Requires k <= n. Uses Floyd's algorithm: O(k) expected time.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// The same draws and order, written to `out`, with k = out.size().
  /// Up to kScanPicks picks it allocates nothing: each draw scans the
  /// picks so far. Larger samples test membership in a FlatSet.
  void sample_without_replacement(std::size_t n, std::span<std::size_t> out);

  /// Sample size up to which membership is a scan of the picks so far.
  static constexpr std::size_t kScanPicks = 16;

  /// Forks a statistically independent child stream (for per-worker or
  /// per-trial streams that must not perturb the parent sequence).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace crowdrank
