// Corrupted-input coverage for analysis/invariants.hpp: every validator
// must (a) accept the output of a healthy pipeline stage and (b) fire with
// a message naming the offending element when fed a deliberately broken
// structure.
#include "analysis/invariants.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "graph/preference_graph.hpp"
#include "graph/task_graph.hpp"
#include "metrics/ranking.hpp"
#include "util/matrix.hpp"

namespace crowdrank {
namespace {

/// Runs `fn`, expecting an InvariantError; returns its message (empty when
/// nothing was thrown, which the caller then flags).
template <typename Fn>
std::string violation(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
  } catch (const analysis::InvariantError& e) {
    return e.what();
  }
  return {};
}

bool mentions(const std::string& message, const std::string& needle) {
  return message.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------- switch

TEST(InvariantSwitch, OverrideBeatsEnvironmentAndDefault) {
  analysis::set_invariant_checks(true);
  EXPECT_TRUE(analysis::invariant_checks_enabled());
  analysis::set_invariant_checks(false);
  EXPECT_FALSE(analysis::invariant_checks_enabled());
  analysis::set_invariant_checks(std::nullopt);  // back to env/build default
}

// ------------------------------------------------------------ task graph

TEST(TaskGraphInvariant, AcceptsRegularConnectedGraph) {
  TaskGraph g(4);  // 4-cycle: 2-regular, connected
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  EXPECT_NO_THROW(analysis::check_task_graph(g, 4));
}

TEST(TaskGraphInvariant, FiresOnWrongEdgeCount) {
  TaskGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::string msg =
      violation([&] { analysis::check_task_graph(g, 5); });
  EXPECT_TRUE(mentions(msg, "task_assignment")) << msg;
  EXPECT_TRUE(mentions(msg, "expected 5")) << msg;
}

TEST(TaskGraphInvariant, FiresOnIrregularDegrees) {
  // Star graph: center degree 3, leaves degree 1 — unfair (spread 2).
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const std::string msg =
      violation([&] { analysis::check_task_graph(g, 3); });
  EXPECT_TRUE(mentions(msg, "unfair degrees")) << msg;
}

TEST(TaskGraphInvariant, FiresOnDisconnectedGraph) {
  // Two disjoint edges: perfectly 1-regular, but two components.
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const std::string msg =
      violation([&] { analysis::check_task_graph(g, 2); });
  EXPECT_TRUE(mentions(msg, "disconnected")) << msg;
}

TEST(TaskGraphInvariant, FiresWhenIntegralDegreeTargetIsMissed) {
  // n = 4, l = 4 -> 2l/n = 2 must be exact; a path + chord has degrees
  // 1..3. (Edge count and fairness spread would alone let 2..2+1 pass.)
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  const std::string msg =
      violation([&] { analysis::check_task_graph(g, 4); });
  EXPECT_FALSE(msg.empty());
}

// ------------------------------------------------------- truth discovery

TruthDiscoveryResult healthy_step1() {
  TruthDiscoveryResult r;
  r.truths.push_back({Edge{0, 1}, 0.8, 3});
  r.truths.push_back({Edge{1, 2}, 0.4, 3});
  r.worker_quality = {0.9, 0.7};
  r.worker_weight = {1.0, 0.5};
  r.iterations = 4;
  r.converged = true;
  r.contested_tasks = 2;
  r.full_passes = 1;
  return r;
}

TEST(TruthInvariant, AcceptsHealthyResult) {
  EXPECT_NO_THROW(analysis::check_truth_discovery(healthy_step1(), 3, 2));
}

TEST(TruthInvariant, FiresOnOutOfRangeTruth) {
  auto r = healthy_step1();
  r.truths[0].x = 1.5;
  const std::string msg =
      violation([&] { analysis::check_truth_discovery(r, 3, 2); });
  EXPECT_TRUE(mentions(msg, "step1_truth_discovery")) << msg;
  EXPECT_TRUE(mentions(msg, "outside [0, 1]")) << msg;
}

TEST(TruthInvariant, FiresOnNanTruth) {
  auto r = healthy_step1();
  r.truths[0].x = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(analysis::check_truth_discovery(r, 3, 2),
               analysis::InvariantError);
}

TEST(TruthInvariant, FiresOnDuplicateTask) {
  auto r = healthy_step1();
  r.truths.push_back({Edge{0, 1}, 0.2, 1});
  const std::string msg =
      violation([&] { analysis::check_truth_discovery(r, 3, 2); });
  EXPECT_TRUE(mentions(msg, "duplicated")) << msg;
}

TEST(TruthInvariant, FiresOnNonCanonicalTask) {
  auto r = healthy_step1();
  r.truths[1].task = Edge{2, 1};  // first >= second
  EXPECT_THROW(analysis::check_truth_discovery(r, 3, 2),
               analysis::InvariantError);
}

TEST(TruthInvariant, FiresOnQualityVectorProblems) {
  auto r = healthy_step1();
  r.worker_quality[1] = 1.2;
  const std::string out_of_range =
      violation([&] { analysis::check_truth_discovery(r, 3, 2); });
  EXPECT_TRUE(mentions(out_of_range, "worker 1")) << out_of_range;

  const std::string wrong_size = violation(
      [&] { analysis::check_truth_discovery(healthy_step1(), 3, 5); });
  EXPECT_TRUE(mentions(wrong_size, "expected 5")) << wrong_size;
}

TEST(TruthInvariant, FiresOnVotelessTask) {
  auto r = healthy_step1();
  r.truths[0].vote_count = 0;
  const std::string msg =
      violation([&] { analysis::check_truth_discovery(r, 3, 2); });
  EXPECT_TRUE(mentions(msg, "zero votes")) << msg;
}

TEST(TruthInvariant, FiresOnPassCounts) {
  auto r = healthy_step1();
  r.contested_tasks = 3;
  const std::string contested =
      violation([&] { analysis::check_truth_discovery(r, 3, 2); });
  EXPECT_TRUE(mentions(contested, "3 contested tasks of 2")) << contested;

  for (const std::size_t passes : {0, 5}) {
    r = healthy_step1();
    r.full_passes = passes;
    const std::string msg =
        violation([&] { analysis::check_truth_discovery(r, 3, 2); });
    EXPECT_TRUE(mentions(msg, "passes over every task in 4 iterations"))
        << msg;
  }
}

// ---------------------------------------------------- preference graph

using Edges = std::vector<WeightedEdge>;

PreferenceGraph small_graph() {
  return PreferenceGraph(
      3, Edges{{0, 1, 0.8}, {1, 0, 0.2}, {1, 2, 0.6}, {2, 1, 0.4}});
}

TEST(PreferenceGraphInvariant, AcceptsConsistentGraph) {
  const PreferenceGraph g = small_graph();
  EXPECT_NO_THROW(analysis::check_preference_graph(g.out_csr()));
}

// The graph validates its edges at construction, so these corrupt a
// detached copy of its CSR.

TEST(CsrInvariant, FiresOnCorruptedWeight) {
  const PreferenceGraph g = small_graph();
  CsrAdjacency csr = g.out_csr();
  csr.weights[0] += 0.5;  // 1.3: no longer a probability
  const std::string msg =
      violation([&] { analysis::check_preference_graph(csr); });
  EXPECT_TRUE(mentions(msg, "outside (0, 1]")) << msg;
}

TEST(CsrInvariant, FiresOnUnsortedNeighbors) {
  const PreferenceGraph g(3, Edges{{0, 1, 0.5}, {0, 2, 0.5}});
  CsrAdjacency csr = g.out_csr();
  std::swap(csr.neighbors[0], csr.neighbors[1]);
  std::swap(csr.weights[0], csr.weights[1]);
  const std::string msg =
      violation([&] { analysis::check_preference_graph(csr); });
  EXPECT_TRUE(mentions(msg, "ascending")) << msg;
}

TEST(CsrInvariant, FiresOnRowCountMismatch) {
  const PreferenceGraph g = small_graph();
  CsrAdjacency csr = g.out_csr();
  csr.row_ptr[1] = 0;  // row 0 now claims zero out-edges
  EXPECT_THROW(analysis::check_preference_graph(csr),
               analysis::InvariantError);
}

TEST(CsrInvariant, FiresOnTruncatedShape) {
  const PreferenceGraph g = small_graph();
  CsrAdjacency csr = g.out_csr();
  csr.neighbors.pop_back();
  const std::string msg =
      violation([&] { analysis::check_preference_graph(csr); });
  EXPECT_TRUE(mentions(msg, "CSR shape")) << msg;
}

// -------------------------------------------- sparse propagation state
// SparseMatrix::from_csr validates only what it can cheaply (shape,
// column range) and trusts the rest of its contract — exactly the gap the
// densify-boundary validators cover. The corruptions below are legal
// inputs to from_csr but violate that contract.

TEST(SparseMatrixInvariant, AcceptsHealthyMatrix) {
  Matrix dense(3, 3, 0.0);
  dense(0, 1) = 0.5;
  dense(1, 2) = 0.25;
  dense(2, 0) = 1.0;
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  EXPECT_NO_THROW(analysis::check_sparse_matrix(sparse));
  EXPECT_NO_THROW(analysis::check_sparse_dense_consistency(sparse, dense));
}

TEST(SparseMatrixInvariant, FiresOnUnsortedColumns) {
  const std::vector<std::size_t> row_ptr{0, 2};
  const std::vector<std::size_t> col_idx{2, 0};  // descending
  const std::vector<double> values{0.5, 0.25};
  const SparseMatrix corrupt =
      SparseMatrix::from_csr(1, 3, row_ptr, col_idx, values);
  const std::string msg =
      violation([&] { analysis::check_sparse_matrix(corrupt); });
  EXPECT_TRUE(mentions(msg, "ascending")) << msg;
}

TEST(SparseMatrixInvariant, FiresOnStoredZero) {
  const std::vector<std::size_t> row_ptr{0, 1};
  const std::vector<std::size_t> col_idx{1};
  const std::vector<double> values{0.0};  // stored entries must be nonzero
  const SparseMatrix corrupt =
      SparseMatrix::from_csr(1, 2, row_ptr, col_idx, values);
  const std::string msg =
      violation([&] { analysis::check_sparse_matrix(corrupt); });
  EXPECT_TRUE(mentions(msg, "zero or non-finite")) << msg;
}

TEST(SparseMatrixInvariant, FiresOnNonMonotoneRowPtr) {
  const std::vector<std::size_t> row_ptr{0, 1, 0, 1};
  const std::vector<std::size_t> col_idx{0};
  const std::vector<double> values{0.5};
  const SparseMatrix corrupt =
      SparseMatrix::from_csr(3, 2, row_ptr, col_idx, values);
  EXPECT_THROW(analysis::check_sparse_matrix(corrupt),
               analysis::InvariantError);
}

TEST(SparseDenseInvariant, FiresOnDivergedEntry) {
  Matrix dense(2, 2, 0.0);
  dense(0, 1) = 0.5;
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  dense(0, 1) = 0.75;  // dense view drifts from the sparse snapshot
  const std::string msg = violation(
      [&] { analysis::check_sparse_dense_consistency(sparse, dense); });
  EXPECT_TRUE(mentions(msg, "disagrees with stored value")) << msg;
}

TEST(SparseDenseInvariant, FiresOnExtraDenseEntry) {
  Matrix dense(2, 2, 0.0);
  dense(0, 1) = 0.5;
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  dense(1, 0) = 0.1;  // entry the sparse matrix never stored
  const std::string msg = violation(
      [&] { analysis::check_sparse_dense_consistency(sparse, dense); });
  EXPECT_TRUE(mentions(msg, "should be absent")) << msg;
}

// ------------------------------------------------------------ smoothing

TEST(SmoothingInvariant, AcceptsProperSmoothing) {
  const PreferenceGraph direct(
      3, Edges{{0, 1, 1.0}, {1, 2, 0.7}, {2, 1, 0.3}});  // (0, 1): a 1-edge
  const PreferenceGraph smoothed(
      3, Edges{{0, 1, 0.9}, {1, 0, 0.1}, {1, 2, 0.7}, {2, 1, 0.3}});
  EXPECT_NO_THROW(
      analysis::check_smoothing(direct, smoothed, SmoothingConfig{}));
}

TEST(SmoothingInvariant, FiresWhenNonOneEdgeChanges) {
  const PreferenceGraph direct(3, Edges{{1, 2, 0.7}, {2, 1, 0.3}});
  const PreferenceGraph smoothed(3, Edges{{1, 2, 0.65}, {2, 1, 0.3}});
  const std::string msg = violation([&] {
    analysis::check_smoothing(direct, smoothed, SmoothingConfig{});
  });
  EXPECT_TRUE(mentions(msg, "non-1-edge")) << msg;
}

TEST(SmoothingInvariant, FiresWhenSmoothingInventsAnEdge) {
  const PreferenceGraph direct(3, Edges{{1, 2, 0.7}, {2, 1, 0.3}});
  const PreferenceGraph smoothed(
      3, Edges{{1, 2, 0.7}, {2, 1, 0.3}, {2, 0, 0.5}});  // (0, 2): no task
  const std::string msg = violation([&] {
    analysis::check_smoothing(direct, smoothed, SmoothingConfig{});
  });
  EXPECT_TRUE(mentions(msg, "non-task pair")) << msg;
}

TEST(SmoothingInvariant, FiresWhenOneEdgeLeftUnanimous) {
  const PreferenceGraph direct(2, Edges{{0, 1, 1.0}});
  const PreferenceGraph smoothed = direct;  // smoothing "forgot" the edge
  const std::string msg = violation([&] {
    analysis::check_smoothing(direct, smoothed, SmoothingConfig{});
  });
  EXPECT_TRUE(mentions(msg, "step2_smoothing")) << msg;
}

TEST(SmoothingInvariant, FiresWhenReverseMassEscapesClamp) {
  const PreferenceGraph direct(2, Edges{{0, 1, 1.0}});
  const PreferenceGraph smoothed(
      2, Edges{{0, 1, 0.9995}, {1, 0, 0.0005}});  // below min_mass 1e-3
  const std::string msg = violation([&] {
    analysis::check_smoothing(direct, smoothed, SmoothingConfig{});
  });
  EXPECT_TRUE(mentions(msg, "reverse mass")) << msg;
}

// -------------------------------------------------------------- closure

Matrix healthy_closure() {
  Matrix m(3, 3, 0.0);
  const auto set_pair = [&](std::size_t i, std::size_t j, double w) {
    m(i, j) = w;
    m(j, i) = 1.0 - w;
  };
  set_pair(0, 1, 0.7);
  set_pair(0, 2, 0.6);
  set_pair(1, 2, 0.55);
  return m;
}

TEST(ClosureInvariant, AcceptsPairNormalizedCompleteClosure) {
  EXPECT_NO_THROW(analysis::check_closure(healthy_closure()));
}

TEST(ClosureInvariant, FiresOnMissingPair) {
  Matrix m = healthy_closure();
  m(0, 2) = 0.0;  // evidence-free direction: completeness broken
  const std::string msg = violation([&] { analysis::check_closure(m); });
  EXPECT_TRUE(mentions(msg, "not complete")) << msg;
}

TEST(ClosureInvariant, FiresOnBrokenPairNormalization) {
  Matrix m = healthy_closure();
  m(1, 2) = 0.8;  // 0.8 + 0.45 != 1
  const std::string msg = violation([&] { analysis::check_closure(m); });
  EXPECT_TRUE(mentions(msg, "pair normalization")) << msg;
}

TEST(ClosureInvariant, FiresOnNonZeroDiagonal) {
  Matrix m = healthy_closure();
  m(1, 1) = 0.25;
  const std::string msg = violation([&] { analysis::check_closure(m); });
  EXPECT_TRUE(mentions(msg, "diagonal")) << msg;
}

TEST(StochasticInvariant, ChecksRowSums) {
  Matrix m(2, 2, 0.5);
  EXPECT_NO_THROW(analysis::check_stochastic_rows(m));
  m(0, 0) = 0.75;
  const std::string msg =
      violation([&] { analysis::check_stochastic_rows(m); });
  EXPECT_TRUE(mentions(msg, "row 0 sums to")) << msg;
}

// -------------------------------------------------------------- ranking

TEST(RankingInvariant, AcceptsPermutation) {
  const Ranking r({2, 0, 1});
  EXPECT_NO_THROW(analysis::check_ranking(r, 3));
}

TEST(RankingInvariant, FiresOnSizeMismatch) {
  const Ranking r({1, 0});
  const std::string msg =
      violation([&] { analysis::check_ranking(r, 3); });
  EXPECT_TRUE(mentions(msg, "step4_find_best_ranking")) << msg;
  EXPECT_TRUE(mentions(msg, "covers 2")) << msg;
}

// ------------------------------------------------- pipeline integration

TEST(PipelineInvariants, FullExperimentPassesWithChecksOn) {
  ExperimentConfig config;
  config.object_count = 16;
  config.selection_ratio = 0.3;
  config.seed = 11;
  config.inference.check_invariants = true;
  const ExperimentResult checked = run_experiment(config);
  analysis::check_ranking(checked.inference.ranking, config.object_count);

  // Validation is observe-only: the checked run must match an unchecked
  // one bit for bit.
  config.inference.check_invariants = false;
  analysis::set_invariant_checks(false);
  const ExperimentResult plain = run_experiment(config);
  analysis::set_invariant_checks(std::nullopt);
  EXPECT_EQ(checked.inference.ranking, plain.inference.ranking);
  EXPECT_EQ(checked.inference.log_probability,
            plain.inference.log_probability);
}

}  // namespace
}  // namespace crowdrank
