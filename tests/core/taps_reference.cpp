#include "taps_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "graph/hamiltonian.hpp"
#include "util/error.hpp"

namespace crowdrank {

namespace {

/// Enumerates all n! Hamiltonian paths of a complete closure.
std::vector<Path> all_paths(std::size_t n) {
  std::vector<Path> paths;
  Path perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  do {
    paths.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return paths;
}

}  // namespace

TapsReferenceResult taps_reference_search(const Matrix& closure) {
  CR_EXPECTS(closure.is_square(), "closure matrix must be square");
  const std::size_t n = closure.rows();
  CR_EXPECTS(n >= 2 && n <= 7,
             "the materialized-lists reference is limited to n <= 7");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        CR_EXPECTS(closure(i, j) > 0.0 && closure(i, j) <= 1.0,
                   "reference TAPS requires a complete closure");
      }
    }
  }

  // Materialize: paths[p] and, for each of the n-1 edge positions, the
  // list of <pathID, weight> sorted by weight descending.
  const std::vector<Path> paths = all_paths(n);
  const std::size_t num_paths = paths.size();
  const std::size_t positions = n - 1;

  struct Row {
    double weight;
    std::size_t path_id;
  };
  std::vector<std::vector<Row>> lists(positions);
  for (std::size_t pos = 0; pos < positions; ++pos) {
    auto& list = lists[pos];
    list.reserve(num_paths);
    for (std::size_t p = 0; p < num_paths; ++p) {
      list.push_back(Row{closure(paths[p][pos], paths[p][pos + 1]), p});
    }
    std::sort(list.begin(), list.end(), [](const Row& a, const Row& b) {
      if (a.weight != b.weight) return a.weight > b.weight;
      return a.path_id < b.path_id;  // deterministic tie order
    });
  }

  // Random access: score of path p = prod over positions of its weights.
  const auto score_of = [&](std::size_t p) {
    double log_score = 0.0;
    for (std::size_t pos = 0; pos < positions; ++pos) {
      log_score += std::log(closure(paths[p][pos], paths[p][pos + 1]));
    }
    return log_score;
  };

  TapsReferenceResult result;
  double best = -std::numeric_limits<double>::infinity();
  std::set<std::size_t> best_ids;
  std::set<std::size_t> seen;
  constexpr double kTieTol = 1e-12;

  for (std::size_t depth = 0; depth < num_paths; ++depth) {
    // Step 1: sorted access in parallel to each list at this depth.
    for (std::size_t pos = 0; pos < positions; ++pos) {
      const std::size_t p = lists[pos][depth].path_id;
      if (!seen.insert(p).second) continue;
      const double s = score_of(p);  // random access to the other lists
      if (s > best + kTieTol) {
        best = s;
        best_ids = {p};
      } else if (std::abs(s - best) <= kTieTol) {
        best_ids.insert(p);
      }
    }
    // Step 2: theta = product of the last weights seen under sorted
    // access; halt once max *strictly* exceeds theta — any unseen path is
    // bounded by theta, so only exact ties could remain, and continuing
    // while theta == max is what "include all tie paths in Y" requires.
    double log_theta = 0.0;
    for (std::size_t pos = 0; pos < positions; ++pos) {
      log_theta += std::log(lists[pos][depth].weight);
    }
    if (best > log_theta + kTieTol) {
      result.sorted_access_depth = depth + 1;
      break;
    }
  }
  if (result.sorted_access_depth == 0) {
    result.sorted_access_depth = num_paths;  // exhausted
  }

  for (const std::size_t p : best_ids) {
    result.best_paths.push_back(paths[p]);
  }
  result.log_probability = best;
  result.probability = std::exp(best);
  return result;
}

}  // namespace crowdrank
