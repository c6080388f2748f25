// Confidence annotation of an aggregated ranking.
//
// A full ranking hides how sure the evidence is about each boundary: the
// closure weight w(a, b) of consecutive objects a, b is exactly the
// aggregated belief that the boundary is ordered correctly, so (w - 0.5)
// is its margin. Requesters use this to (a) report per-position error
// bars, (b) detect "effectively tied" runs that a downstream consumer
// should treat as unordered, and (c) decide where a second crowdsourcing
// round would help (core/two_round.hpp targets exactly the low-margin
// pairs). An engine run's closure is read through a ClosureCapture
// (core/checkpoint.hpp), since Step 4 consumes it.
#pragma once

#include <cstddef>
#include <vector>

#include "metrics/ranking.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// Per-boundary confidence of a ranking under a pair-normalized closure.
///
/// Calibration note: with the default Sum path-aggregation the closure is
/// deliberately compressed toward 0.5 (that flattening is what aligns the
/// Step-4 objective with the global order), so boundary beliefs are
/// *conservative* and meaningful relative to one another rather than as
/// absolute probabilities — compare boundaries and rank them; do not read
/// 0.54 as "54% sure".
struct RankingConfidence {
  /// boundary_belief[p] = closure weight of ranking[p] over ranking[p+1],
  /// in [0, 1]; size n-1. Values near 0.5 are coin flips, near 1 solid.
  std::vector<double> boundary_belief;
  double min_belief = 1.0;
  double mean_belief = 1.0;
  /// Position of the weakest boundary (argmin), 0-based.
  std::size_t weakest_boundary = 0;
  /// Geometric-mean per-edge belief = Pr[path]^(1/(n-1)); a scale-free
  /// summary of how much the closure likes this ranking.
  double per_edge_geometric_mean = 1.0;
};

/// Computes the boundary profile. Requires a square closure matching the
/// ranking's size with n >= 2.
RankingConfidence ranking_confidence(const Matrix& closure,
                                     const Ranking& ranking);

/// Splits the ranking into maximal consecutive groups whose internal
/// boundaries all have belief below `tie_threshold` (default idea: 0.55
/// means "the crowd cannot really order these"). Every object appears in
/// exactly one group, groups are in ranking order, and a group of size 1
/// is a confidently-separated object.
std::vector<std::vector<VertexId>> effectively_tied_groups(
    const Matrix& closure, const Ranking& ranking, double tie_threshold);

}  // namespace crowdrank
