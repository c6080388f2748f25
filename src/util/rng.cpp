#include "util/rng.hpp"

#include <cmath>

#include "util/flat_set.hpp"

namespace crowdrank {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
  // xoshiro256++ requires a nonzero state; SplitMix64 of any seed makes an
  // all-zero state astronomically unlikely, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

double Rng::uniform(double lo, double hi) {
  CR_EXPECTS(lo < hi, "uniform(lo, hi) requires lo < hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CR_EXPECTS(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0, 1] so log is finite.
  double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) {
  CR_EXPECTS(sigma >= 0.0, "normal sigma must be non-negative");
  return mean + sigma * normal();
}

double Rng::exponential(double rate) {
  CR_EXPECTS(rate > 0.0, "exponential rate must be positive");
  return -std::log(1.0 - uniform()) / rate;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = i;
  }
  shuffle(p);
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  CR_EXPECTS(k <= n, "cannot sample more items than the population size");
  std::vector<std::size_t> result(k);
  sample_without_replacement(n, result);
  return result;
}

void Rng::sample_without_replacement(std::size_t n,
                                     std::span<std::size_t> out) {
  const std::size_t k = out.size();
  CR_EXPECTS(k <= n, "cannot sample more items than the population size");
  // Floyd's algorithm: for j in [n-k, n): pick t uniform in [0, j]; take t
  // unless already picked, else take j (no earlier pick can be j).
  std::size_t picked = 0;
  if (k <= kScanPicks) {
    for (std::size_t j = n - k; j < n; ++j) {
      const auto t = static_cast<std::size_t>(uniform_index(j + 1));
      const auto taken = out.first(picked);
      out[picked++] =
          std::find(taken.begin(), taken.end(), t) == taken.end() ? t : j;
    }
    return;
  }
  FlatSet chosen;  // picks are below n, never the all-ones key
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(uniform_index(j + 1));
    if (chosen.insert(t)) {
      out[picked++] = t;
    } else {
      chosen.insert(j);
      out[picked++] = j;
    }
  }
}

Rng Rng::fork() {
  // Derive the child seed from two engine outputs; advancing the parent keeps
  // successive forks independent.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ rotl(b, 32));
}

}  // namespace crowdrank
