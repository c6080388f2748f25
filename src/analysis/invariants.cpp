#include "analysis/invariants.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/trace.hpp"

namespace crowdrank::analysis {

namespace {

/// Pair-sum and row-sum tolerance: the stages build these sums from exact
/// complements (smoothing) or explicit normalization (propagation), so the
/// slack only needs to absorb one division's rounding.
constexpr double kSumTolerance = 1e-9;

/// set_invariant_checks() override: 0 = unset, 1 = forced off, 2 = forced
/// on. A single relaxed atomic keeps enabled() callable from pool workers.
std::atomic<int> g_override{0};

bool env_default() {
  const char* env = std::getenv("CROWDRANK_CHECK_INVARIANTS");
  if (env == nullptr || *env == '\0') {
    return CROWDRANK_DEBUG_CHECKS != 0;
  }
  const std::string v(env);
  return !(v == "0" || v == "false" || v == "off" || v == "no" ||
           v == "FALSE" || v == "OFF" || v == "NO");
}

void note_check(const char* /*stage*/) {
  if (metrics::Counter* c = trace::counter("invariants.checks")) {
    c->add(1);
  }
}

[[noreturn]] void fail(const char* stage, const std::string& detail) {
  if (metrics::Counter* c = trace::counter("invariants.violations")) {
    c->add(1);
  }
  throw InvariantError(stage, detail);
}

std::string pair_str(std::size_t i, std::size_t j) {
  std::ostringstream os;
  os << "(" << i << ", " << j << ")";
  return os.str();
}

}  // namespace

InvariantError::InvariantError(std::string stage, const std::string& detail)
    : Error("invariant violated at " + stage + ": " + detail),
      stage_(std::move(stage)) {}

bool invariant_checks_enabled() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced != 0) {
    return forced == 2;
  }
  // The env lookup result never changes mid-process; cache it.
  static const bool enabled = env_default();
  return enabled;
}

void set_invariant_checks(std::optional<bool> enabled) noexcept {
  g_override.store(enabled.has_value() ? (*enabled ? 2 : 1) : 0,
                   std::memory_order_relaxed);
}

void check_task_graph(const TaskGraph& graph, std::size_t expected_edges) {
  constexpr const char* kStage = "task_assignment";
  note_check(kStage);
  const std::size_t n = graph.vertex_count();
  if (graph.edge_count() != expected_edges) {
    std::ostringstream os;
    os << "expected " << expected_edges << " comparison tasks, graph has "
       << graph.edge_count();
    fail(kStage, os.str());
  }
  std::size_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree_sum += graph.degree(v);
  }
  if (degree_sum != 2 * expected_edges) {
    std::ostringstream os;
    os << "degree sum " << degree_sum << " != 2l = " << 2 * expected_edges;
    fail(kStage, os.str());
  }
  const std::size_t d_min = graph.min_degree();
  const std::size_t d_max = graph.max_degree();
  if (d_max - d_min > 1) {
    std::ostringstream os;
    os << "unfair degrees: min " << d_min << ", max " << d_max
       << " (fairness requires a spread of at most 1)";
    fail(kStage, os.str());
  }
  if (n != 0 && (2 * expected_edges) % n == 0 && !graph.is_regular()) {
    std::ostringstream os;
    os << "2l/n = " << (2 * expected_edges) / n
       << " is integral but the graph is not " << (2 * expected_edges) / n
       << "-regular (Thm 4.1)";
    fail(kStage, os.str());
  }
  if (!graph.is_connected()) {
    fail(kStage,
         "task graph is disconnected; smoothing cannot produce a strongly "
         "connected preference graph from it");
  }
}

void check_truth_discovery(const TruthDiscoveryResult& step1,
                           std::size_t object_count,
                           std::size_t worker_count) {
  constexpr const char* kStage = "step1_truth_discovery";
  note_check(kStage);
  if (step1.worker_quality.size() != worker_count ||
      step1.worker_weight.size() != worker_count) {
    std::ostringstream os;
    os << "quality/weight vectors sized " << step1.worker_quality.size()
       << "/" << step1.worker_weight.size() << ", expected " << worker_count;
    fail(kStage, os.str());
  }
  std::set<Edge> seen;
  for (const TaskTruth& t : step1.truths) {
    if (t.task.first >= t.task.second || t.task.second >= object_count) {
      fail(kStage, "task " + pair_str(t.task.first, t.task.second) +
                       " is not a canonical pair of valid objects");
    }
    if (!seen.insert(t.task).second) {
      fail(kStage,
           "task " + pair_str(t.task.first, t.task.second) + " is duplicated");
    }
    if (!(t.x >= 0.0 && t.x <= 1.0)) {  // negated to also catch NaN
      std::ostringstream os;
      os << "estimated truth x = " << t.x << " of task "
         << pair_str(t.task.first, t.task.second) << " is outside [0, 1]";
      fail(kStage, os.str());
    }
    if (t.vote_count == 0) {
      fail(kStage, "task " + pair_str(t.task.first, t.task.second) +
                       " was discovered from zero votes");
    }
  }
  for (std::size_t k = 0; k < worker_count; ++k) {
    const double q = step1.worker_quality[k];
    const double w = step1.worker_weight[k];
    if (!(q >= 0.0 && q <= 1.0) || !(w >= 0.0 && w <= 1.0)) {
      std::ostringstream os;
      os << "worker " << k << " has quality " << q << ", weight " << w
         << " (both must lie in [0, 1])";
      fail(kStage, os.str());
    }
  }
  if (step1.contested_tasks > step1.truths.size()) {
    std::ostringstream os;
    os << step1.contested_tasks << " contested tasks of "
       << step1.truths.size();
    fail(kStage, os.str());
  }
  if (step1.full_passes < 1 || step1.full_passes > step1.iterations) {
    std::ostringstream os;
    os << step1.full_passes << " passes over every task in "
       << step1.iterations << " iterations (need 1 <= passes <= iterations)";
    fail(kStage, os.str());
  }
}

void check_preference_graph(const CsrAdjacency& graph) {
  constexpr const char* kStage = "preference_graph";
  note_check(kStage);
  if (graph.row_ptr.empty() || graph.row_ptr.front() != 0 ||
      graph.row_ptr.back() != graph.neighbors.size() ||
      graph.neighbors.size() != graph.weights.size()) {
    fail(kStage, "CSR shape is not closed: row_ptr must run from 0 to the "
                 "edge count, with one weight per neighbor");
  }
  const std::size_t n = graph.vertex_count();
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t begin = graph.row_ptr[v];
    const std::size_t end = graph.row_ptr[v + 1];
    if (end < begin) {
      std::ostringstream os;
      os << "row_ptr not monotone at vertex " << v;
      fail(kStage, os.str());
    }
    for (std::size_t e = begin; e < end; ++e) {
      const VertexId to = graph.neighbors[e];
      if (to >= n || (e > begin && graph.neighbors[e - 1] >= to)) {
        std::ostringstream os;
        os << "CSR row " << v << " neighbors not strictly ascending valid "
           << "ids at entry " << e - begin;
        fail(kStage, os.str());
      }
      if (to == v) {
        std::ostringstream os;
        os << "self-preference " << graph.weights[e] << " at vertex " << v;
        fail(kStage, os.str());
      }
      const double w = graph.weights[e];
      if (!(w > 0.0 && w <= 1.0)) {
        std::ostringstream os;
        os << "weight " << w << " at " << pair_str(v, to)
           << " is outside (0, 1]";
        fail(kStage, os.str());
      }
    }
  }
}

void check_sparse_matrix(const SparseMatrix& matrix) {
  constexpr const char* kStage = "sparse_matrix";
  note_check(kStage);
  const std::span<const std::size_t> row_ptr = matrix.row_ptr();
  const std::span<const std::uint32_t> cols = matrix.col_indices();
  const std::span<const double> values = matrix.values();
  if (row_ptr.size() != matrix.rows() + 1 || row_ptr.front() != 0 ||
      row_ptr.back() != values.size() || cols.size() != values.size()) {
    fail(kStage, "CSR arrays disagree with the declared shape");
  }
  for (std::size_t i = 0; i < matrix.rows(); ++i) {
    const std::size_t begin = row_ptr[i];
    const std::size_t end = row_ptr[i + 1];
    if (end < begin) {
      std::ostringstream os;
      os << "row_ptr not monotone at row " << i;
      fail(kStage, os.str());
    }
    for (std::size_t e = begin; e < end; ++e) {
      if (cols[e] >= matrix.cols() ||
          (e > begin && cols[e - 1] >= cols[e])) {
        std::ostringstream os;
        os << "row " << i << " columns not strictly ascending valid "
           << "indices at entry " << e - begin;
        fail(kStage, os.str());
      }
      if (!std::isfinite(values[e]) || values[e] == 0.0) {
        std::ostringstream os;
        os << "stored value " << values[e] << " at "
           << pair_str(i, cols[e]) << " is zero or non-finite";
        fail(kStage, os.str());
      }
    }
  }
}

void check_sparse_dense_consistency(const SparseMatrix& sparse,
                                    const Matrix& dense) {
  constexpr const char* kStage = "sparse_dense_consistency";
  note_check(kStage);
  if (dense.rows() != sparse.rows() || dense.cols() != sparse.cols()) {
    fail(kStage, "dense shape disagrees with the sparse matrix");
  }
  const std::span<const std::size_t> row_ptr = sparse.row_ptr();
  const std::span<const std::uint32_t> cols = sparse.col_indices();
  const std::span<const double> values = sparse.values();
  for (std::size_t i = 0; i < sparse.rows(); ++i) {
    std::size_t e = row_ptr[i];
    const std::size_t end = row_ptr[i + 1];
    for (std::size_t j = 0; j < sparse.cols(); ++j) {
      const bool stored = e < end && cols[e] == j;
      const double expected = stored ? values[e] : 0.0;
      if (dense(i, j) != expected) {
        std::ostringstream os;
        os << "dense entry " << dense(i, j) << " at " << pair_str(i, j)
           << (stored ? " disagrees with stored value "
                      : " should be absent, expected ")
           << expected;
        fail(kStage, os.str());
      }
      if (stored) ++e;
    }
    if (e != end) {
      std::ostringstream os;
      os << "row " << i << " has stored entries the dense scan never "
         << "visited";
      fail(kStage, os.str());
    }
  }
}

void check_smoothing(const PreferenceGraph& direct,
                     const PreferenceGraph& smoothed,
                     const SmoothingConfig& config) {
  constexpr const char* kStage = "step2_smoothing";
  note_check(kStage);
  const std::size_t n = direct.vertex_count();
  if (smoothed.vertex_count() != n) {
    fail(kStage, "smoothing changed the vertex count");
  }
  // Every pair either graph touches has a direct edge in some direction;
  // a smoothed edge between two directly unrelated objects is invented.
  const CsrAdjacency& out = smoothed.out_csr();
  for (VertexId i = 0; i < n; ++i) {
    for (std::size_t e = out.row_ptr[i]; e < out.row_ptr[i + 1]; ++e) {
      const VertexId j = out.neighbors[e];
      if (!direct.has_edge(i, j) && !direct.has_edge(j, i)) {
        std::ostringstream os;
        os << "smoothing added an edge on the non-task pair "
           << pair_str(i, j);
        fail(kStage, os.str());
      }
    }
  }
  const CsrAdjacency& in = direct.out_csr();
  for (VertexId a = 0; a < n; ++a) {
    for (std::size_t e = in.row_ptr[a]; e < in.row_ptr[a + 1]; ++e) {
      const VertexId b = in.neighbors[e];
      // Visit each pair once, from the lower id's edge when it has one.
      if (b < a && direct.has_edge(b, a)) continue;
      const VertexId i = std::min(a, b);
      const VertexId j = std::max(a, b);
      const double dij = direct.weight(i, j);
      const double dji = direct.weight(j, i);
      const double sij = smoothed.weight(i, j);
      const double sji = smoothed.weight(j, i);
      const bool one_edge = dij == 1.0 || dji == 1.0;
      if (!one_edge) {
        if (sij != dij || sji != dji) {
          std::ostringstream os;
          os << "non-1-edge pair " << pair_str(i, j) << " changed: ("
             << dij << ", " << dji << ") -> (" << sij << ", " << sji << ")";
          fail(kStage, os.str());
        }
        continue;
      }
      // A unanimous pair: the forward direction must stay preferred, the
      // estimated reverse mass must stay inside the configured clamp, and
      // the pair must now carry total mass exactly 1 (bidirectional, so
      // the smoothed graph can be strongly connected — Thm 5.1).
      const double forward = dij == 1.0 ? sij : sji;
      const double reverse = dij == 1.0 ? sji : sij;
      if (std::abs(forward + reverse - 1.0) > kSumTolerance) {
        std::ostringstream os;
        os << "smoothed 1-edge " << pair_str(i, j) << " mass " << forward
           << " + " << reverse << " != 1";
        fail(kStage, os.str());
      }
      if (!(reverse >= config.min_mass && reverse <= config.max_mass)) {
        std::ostringstream os;
        os << "smoothed 1-edge " << pair_str(i, j) << " reverse mass "
           << reverse << " is outside [" << config.min_mass << ", "
           << config.max_mass << "]";
        fail(kStage, os.str());
      }
      if (forward <= reverse) {
        std::ostringstream os;
        os << "smoothing no longer prefers the unanimous direction of "
           << pair_str(i, j) << " (" << forward << " <= " << reverse << ")";
        fail(kStage, os.str());
      }
    }
  }
}

void check_closure(const Matrix& closure) {
  constexpr const char* kStage = "step3_propagation";
  note_check(kStage);
  if (!closure.is_square()) {
    fail(kStage, "closure matrix is not square");
  }
  const std::size_t n = closure.rows();
  for (std::size_t i = 0; i < n; ++i) {
    if (closure(i, i) != 0.0) {
      std::ostringstream os;
      os << "closure diagonal entry " << closure(i, i) << " at vertex " << i;
      fail(kStage, os.str());
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      const double wij = closure(i, j);
      const double wji = closure(j, i);
      if (!(wij > 0.0 && wij < 1.0) || !(wji > 0.0 && wji < 1.0)) {
        std::ostringstream os;
        os << "closure pair " << pair_str(i, j) << " = (" << wij << ", "
           << wji << ") is not complete in (0, 1) — Thm 5.1's "
           << "always-a-Hamiltonian-path guarantee fails";
        fail(kStage, os.str());
      }
      if (std::abs(wij + wji - 1.0) > kSumTolerance) {
        std::ostringstream os;
        os << "closure pair " << pair_str(i, j) << " sums to " << wij + wji
           << " instead of 1 (pair normalization broken)";
        fail(kStage, os.str());
      }
    }
  }
}

void check_stochastic_rows(const Matrix& matrix, double tolerance) {
  constexpr const char* kStage = "propagation_matrix";
  note_check(kStage);
  for (std::size_t i = 0; i < matrix.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < matrix.cols(); ++j) {
      const double v = matrix(i, j);
      if (!(v >= 0.0)) {
        std::ostringstream os;
        os << "negative (or NaN) entry " << v << " at " << pair_str(i, j);
        fail(kStage, os.str());
      }
      sum += v;
    }
    if (std::abs(sum - 1.0) > tolerance) {
      std::ostringstream os;
      os << "row " << i << " sums to " << sum << ", not 1 (+/- " << tolerance
         << ")";
      fail(kStage, os.str());
    }
  }
}

void check_ranking(const Ranking& ranking, std::size_t object_count) {
  constexpr const char* kStage = "step4_find_best_ranking";
  note_check(kStage);
  if (ranking.size() != object_count) {
    std::ostringstream os;
    os << "ranking covers " << ranking.size() << " objects, expected "
       << object_count;
    fail(kStage, os.str());
  }
  std::vector<bool> placed(object_count, false);
  for (std::size_t p = 0; p < object_count; ++p) {
    const VertexId v = ranking.order()[p];
    if (v >= object_count) {
      std::ostringstream os;
      os << "position " << p << " holds invalid object id " << v;
      fail(kStage, os.str());
    }
    if (placed[v]) {
      std::ostringstream os;
      os << "object " << v << " appears more than once (not a total order)";
      fail(kStage, os.str());
    }
    placed[v] = true;
    if (ranking.positions()[v] != p) {
      std::ostringstream os;
      os << "positions() is not the inverse of order() at object " << v;
      fail(kStage, os.str());
    }
  }
}

}  // namespace crowdrank::analysis
