// Ablation — Step 2 (preference smoothing) on/off and mode (DESIGN.md §6).
//
// Without smoothing, every unanimous task stays a 1-edge: the preference
// graph keeps its in-/out-nodes, the closure leans on the completeness
// floor instead of estimated reverse preferences, and accuracy drops —
// exactly the failure mode Thm 4.3 / §V-B describes.
#include "bench/common.hpp"
#include "core/propagation.hpp"
#include "core/smoothing.hpp"
#include "core/task_assignment.hpp"
#include "metrics/kendall.hpp"

namespace crowdrank {
namespace {

struct Outcome {
  double accuracy = 0.0;
  bool strongly_connected = false;
  std::size_t fallback_pairs = 0;
};

Outcome run_once(bool smoothing_on, SmoothingMode mode, double ratio,
                 std::uint64_t seed) {
  const std::size_t n = 100;
  const std::size_t m = 30;
  Rng rng(seed);
  auto perm = rng.permutation(n);
  const Ranking truth(std::vector<VertexId>(perm.begin(), perm.end()));
  auto workers = sample_worker_pool(
      m, {QualityDistribution::Gaussian, QualityLevel::Medium}, rng);
  const BudgetModel budget =
      BudgetModel::for_selection_ratio(n, ratio, 0.025, 3);
  const auto ta =
      generate_task_assignment(n, budget.unique_task_count(), rng);
  std::vector<Edge> tasks(ta.graph.edges().begin(), ta.graph.edges().end());
  const HitAssignment assignment(tasks, HitConfig{5, 3}, m, rng);
  const SimulatedCrowd crowd(truth, workers);
  const VoteBatch votes = crowd.collect(assignment, rng);

  VoteIndex index;
  const auto step1 = discover_truth(votes, n, m, {}, &index);
  const PreferenceGraph graph = [&] {
    if (!smoothing_on) return step1.to_preference_graph(n);
    SmoothingConfig config;
    config.mode = mode;
    Rng smooth_rng(seed + 1);
    return smooth_preferences(n, step1, assigned_workers(index, assignment),
                              config, &smooth_rng, nullptr);
  }();

  PropagationStats stats;
  const Matrix closure = propagate_preferences(graph, {}, &stats);
  Rng saps_rng(seed + 2);
  const SapsResult saps = saps_search(closure, {}, saps_rng);

  Outcome out;
  out.accuracy = ranking_accuracy(truth, Ranking(saps.best_path));
  out.strongly_connected = graph.is_strongly_connected();
  out.fallback_pairs = stats.pairs_without_evidence;
  return out;
}

void run() {
  bench::banner("Ablation: preference smoothing (Step 2)",
                "smoothing off vs expected-error vs sampled-error "
                "(n = 100, medium Gaussian quality)");

  TableWriter table({"r", "smoothing", "accuracy", "strongly_connected",
                     "fallback_pairs"});
  const int trials = 3;
  for (const double ratio : {0.1, 0.3, 0.5}) {
    struct Variant {
      const char* name;
      bool on;
      SmoothingMode mode;
    };
    const Variant variants[] = {
        {"off", false, SmoothingMode::ExpectedError},
        {"expected-error (default)", true, SmoothingMode::ExpectedError},
        {"sampled-error (paper literal)", true, SmoothingMode::SampledError},
    };
    for (const auto& variant : variants) {
      double acc = 0.0;
      bool connected = true;
      double fallback = 0.0;
      for (int t = 0; t < trials; ++t) {
        const Outcome o = run_once(variant.on, variant.mode, ratio,
                                   6000 + t);
        acc += o.accuracy;
        connected = connected && o.strongly_connected;
        fallback += static_cast<double>(o.fallback_pairs);
      }
      table.add_row({TableWriter::fmt(ratio, 1), variant.name,
                     TableWriter::fmt(acc / trials),
                     connected ? "always" : "not always",
                     TableWriter::fmt(fallback / trials, 1)});
    }
  }
  bench::emit(table);
}

}  // namespace
}  // namespace crowdrank

int main() {
  crowdrank::run();
  return 0;
}
