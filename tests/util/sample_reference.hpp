// Reference sampler: Floyd's algorithm with a std::set as its membership
// test, the draws and output order `Rng::sample_without_replacement`
// keeps with its scan and flat set.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace crowdrank {

/// k distinct indices from [0, n), k <= n: for j in [n - k, n), draw t
/// uniform in [0, j]; take t unless already taken, else take j.
inline std::vector<std::size_t> floyd_sample_reference(Rng& rng,
                                                       std::size_t n,
                                                       std::size_t k) {
  std::set<std::size_t> chosen;
  std::vector<std::size_t> result;
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(rng.uniform_index(j + 1));
    const std::size_t pick = chosen.insert(t).second ? t : j;
    chosen.insert(pick);
    result.push_back(pick);
  }
  return result;
}

}  // namespace crowdrank
