#include "core/pipeline.hpp"

#include <utility>

#include "analysis/invariants.hpp"
#include "graph/hamiltonian.hpp"
#include "metrics/kendall.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace crowdrank {

const char* stage_name(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::Validation:
      return "validation";
    case PipelineStage::Hardening:
      return "hardening";
    case PipelineStage::TruthDiscovery:
      return "truth_discovery";
    case PipelineStage::Smoothing:
      return "smoothing";
    case PipelineStage::Propagation:
      return "propagation";
    case PipelineStage::RankSearch:
      return "rank_search";
    case PipelineStage::Done:
      return "done";
  }
  return "unknown";
}

std::optional<PipelineStage> stage_from_name(std::string_view name) {
  for (const PipelineStage stage :
       {PipelineStage::Validation, PipelineStage::Hardening,
        PipelineStage::TruthDiscovery, PipelineStage::Smoothing,
        PipelineStage::Propagation, PipelineStage::RankSearch,
        PipelineStage::Done}) {
    if (name == stage_name(stage)) {
      return stage;
    }
  }
  return std::nullopt;
}

void ClosureCapture::checkpoint(const StageSnapshot& snapshot) {
  if (snapshot.next == PipelineStage::RankSearch) {
    closure_ = *snapshot.closure;
  }
  if (inner_ != nullptr) {
    inner_->checkpoint(snapshot);
  }
}

std::string format_config_errors(const std::vector<ConfigError>& errors) {
  std::string out;
  for (const ConfigError& e : errors) {
    if (!out.empty()) {
      out += "; ";
    }
    out += e.field;
    out += ": ";
    out += e.message;
  }
  return out;
}

namespace {

void check(std::vector<ConfigError>& errors, bool ok, const char* field,
           const char* message) {
  if (!ok) {
    errors.push_back({field, message});
  }
}

}  // namespace

std::vector<ConfigError> InferenceConfig::validate() const {
  std::vector<ConfigError> errors;
  check(errors, truth_discovery.max_iterations >= 1,
        "truth_discovery.max_iterations", "must be at least 1");
  check(errors, truth_discovery.tolerance > 0.0,
        "truth_discovery.tolerance", "must be positive");
  check(errors,
        truth_discovery.alpha > 0.0 && truth_discovery.alpha < 1.0,
        "truth_discovery.alpha", "must lie in (0, 1)");
  check(errors, truth_discovery.deviation_floor >= 0.0,
        "truth_discovery.deviation_floor", "must be non-negative");
  check(errors, smoothing.min_mass > 0.0, "smoothing.min_mass",
        "must be positive (a zero keeps 1-edges unidirectional)");
  check(errors, smoothing.min_mass <= smoothing.max_mass,
        "smoothing.min_mass", "must not exceed smoothing.max_mass");
  check(errors, smoothing.max_mass < 0.5, "smoothing.max_mass",
        "must stay below 0.5 so the forward direction stays preferred");
  check(errors, propagation.max_length >= 1, "propagation.max_length",
        "must be at least 1");
  check(errors, propagation.alpha >= 0.0 && propagation.alpha <= 1.0,
        "propagation.alpha", "must lie in [0, 1]");
  check(errors,
        propagation.completeness_floor > 0.0 &&
            propagation.completeness_floor < 0.5,
        "propagation.completeness_floor", "must lie in (0, 0.5)");
  check(errors,
        propagation.spectral_horizon == 0 ||
            propagation.spectral_horizon >= 2,
        "propagation.spectral_horizon", "must be 0 (auto) or at least 2");
  check(errors, saps.iterations >= 1, "saps.iterations",
        "must be at least 1");
  check(errors, saps.initial_temperature > 0.0, "saps.initial_temperature",
        "must be positive");
  check(errors,
        saps.cooling_rate > 0.0 && saps.cooling_rate <= 1.0,
        "saps.cooling_rate", "must lie in (0, 1]");
  check(errors, saps.paper_mode || saps.restarts >= 1, "saps.restarts",
        "must be at least 1 unless paper_mode restarts from every vertex");
  check(errors, saps.use_rotate || saps.use_reverse || saps.use_swap,
        "saps.moves", "at least one move type must be enabled");
  check(errors, taps.max_expansions >= 1, "taps.max_expansions",
        "must be at least 1");
  check(errors, taps.tie_tolerance >= 0.0, "taps.tie_tolerance",
        "must be non-negative");
  return errors;
}

std::vector<ConfigError> ExperimentConfig::validate() const {
  std::vector<ConfigError> errors = inference.validate();
  check(errors, object_count >= 2, "object_count",
        "need at least two objects to rank");
  check(errors, selection_ratio > 0.0, "selection_ratio",
        "must be positive");
  check(errors, selection_ratio <= 1.0, "selection_ratio",
        "must not exceed 1: the budget cannot buy more than C(n,2) "
        "distinct comparisons");
  check(errors, workers_per_task >= 1, "workers_per_task",
        "replication w must be at least 1");
  check(errors, workers_per_task <= worker_pool_size, "workers_per_task",
        "replication w must not exceed the pool size m");
  check(errors, comparisons_per_hit >= 1, "comparisons_per_hit",
        "must be at least 1");
  check(errors, reward_per_comparison > 0.0, "reward_per_comparison",
        "must be positive");
  return errors;
}

InferenceEngine::InferenceEngine(InferenceConfig config)
    : config_(std::move(config)) {}

InferenceResult InferenceEngine::infer(const VoteBatch& votes,
                                       std::size_t object_count,
                                       std::size_t worker_count,
                                       const HitAssignment& assignment,
                                       Rng& rng) const {
  return infer_impl(votes, nullptr, object_count, worker_count, &assignment,
                    rng);
}

InferenceResult InferenceEngine::infer(const VoteBatch& votes,
                                       std::size_t object_count,
                                       std::size_t worker_count,
                                       Rng& rng) const {
  return infer_impl(votes, nullptr, object_count, worker_count, nullptr, rng);
}

InferenceResult InferenceEngine::infer(VoteBatch&& votes,
                                       std::size_t object_count,
                                       std::size_t worker_count,
                                       const HitAssignment& assignment,
                                       Rng& rng) const {
  return infer_impl(votes, &votes, object_count, worker_count, &assignment,
                    rng);
}

InferenceResult InferenceEngine::infer(VoteBatch&& votes,
                                       std::size_t object_count,
                                       std::size_t worker_count,
                                       Rng& rng) const {
  return infer_impl(votes, &votes, object_count, worker_count, nullptr, rng);
}

InferenceResult InferenceEngine::infer_impl(const VoteBatch& votes,
                                            VoteBatch* release,
                                            std::size_t object_count,
                                            std::size_t worker_count,
                                            const HitAssignment* assignment,
                                            Rng& rng) const {
  InferenceResult result{Ranking::identity(object_count), 0.0, {}, {}, {},
                         0};

  // Spans and metrics land in the calling thread's sink, if the caller
  // installed one (trace::ScopedSink). Stage validators
  // (analysis/invariants.hpp) run between steps when asked to — one
  // boolean test per stage otherwise. They observe, never mutate, so
  // validated and unvalidated runs are bitwise-identical.
  const bool validate =
      config_.check_invariants || analysis::invariant_checks_enabled();
  trace::Span root("infer");
  if (root.active()) {
    root.set_attr("check_invariants", validate);
    root.set_attr("objects", object_count);
    root.set_attr("workers", worker_count);
    root.set_attr("votes", votes.size());
    root.set_attr("threads", thread_count());
    root.set_attr("search", config_.search == RankSearchMethod::Saps ? "saps"
                            : config_.search == RankSearchMethod::Taps
                                ? "taps"
                                : "held_karp");
  }

  // Cooperative stage checkpoints: fire before every stage (and once with
  // Done) so a controller can deadline/cancel the run between stages. The
  // snapshot pointers fill in as stages complete.
  StageSnapshot snapshot;
  const auto checkpoint = [&](PipelineStage next) {
    if (config_.control != nullptr) {
      snapshot.next = next;
      config_.control->checkpoint(snapshot);
    }
  };

  // Steps 1 and 2. The vote index and each task's workers have no reader
  // after step 2, so they end with this block, before step 3 allocates the
  // closure; a released batch ends as soon as step 1 has indexed it.
  TruthDiscoveryResult step1;
  const PreferenceGraph smoothed = [&] {
    // Step 1: truth discovery of the direct pairwise preferences.
    checkpoint(PipelineStage::TruthDiscovery);
    VoteIndex index;
    {
      trace::Span span("step1_truth_discovery");
      step1 = discover_truth(votes, object_count, worker_count,
                             config_.truth_discovery, &index);
      if (span.active()) {
        span.set_attr("iterations", step1.iterations);
        span.set_attr("converged", step1.converged);
        span.set_attr("tasks", step1.truths.size());
        span.set_attr("contested_tasks", step1.contested_tasks);
        span.set_attr("full_passes", step1.full_passes);
      }
    }
    if (release != nullptr) {
      *release = VoteBatch();
    }
    if (validate) {
      analysis::check_truth_discovery(step1, object_count, worker_count);
    }
    snapshot.truth = &step1;
    checkpoint(PipelineStage::Smoothing);

    // Wire each discovered task to its workers, in truths[] order
    // (smoothing consults those workers' qualities).
    const TaskWorkers task_workers =
        assignment != nullptr ? assigned_workers(index, *assignment)
                              : voting_workers(index);

    // Step 2: preference smoothing of the 1-edges, straight from step 1's
    // truths. A task has at most one 1-edge and smoothing softens each
    // one, so the smoothed count is the 1-edge count.
    trace::Span span("step2_smoothing");
    PreferenceGraph graph =
        smooth_preferences(object_count, step1, task_workers,
                           config_.smoothing, &rng, &result.step2);
    result.one_edge_count = result.step2.one_edges_smoothed;
    if (span.active()) {
      span.set_attr("one_edges", result.one_edge_count);
      span.set_attr("one_edges_smoothed", result.step2.one_edges_smoothed);
      span.set_attr("strongly_connected_after",
                    result.step2.strongly_connected_after);
    }
    return graph;
  }();
  if (validate) {
    // The direct graph G_P exists only for the validators to diff against.
    const PreferenceGraph direct = step1.to_preference_graph(object_count);
    analysis::check_preference_graph(direct.out_csr());
    analysis::check_preference_graph(smoothed.out_csr());
    analysis::check_smoothing(direct, smoothed, config_.smoothing);
  }
  snapshot.smoothed = &smoothed;
  checkpoint(PipelineStage::Propagation);

  // Step 3: transitive propagation into a complete, normalized closure.
  Matrix closure;
  {
    trace::Span span("step3_propagation");
    closure = propagate_preferences(smoothed, config_.propagation,
                                    &result.step3);
    if (span.active()) {
      span.set_attr("pairs_without_evidence",
                    result.step3.pairs_without_evidence);
      span.set_attr("complete", result.step3.complete);
      if (config_.propagation.mode == PropagationMode::SpectralLimit) {
        span.set_attr("fill_ratio", result.step3.fill_ratio);
        span.set_attr("densify_step", result.step3.densify_step);
        span.set_attr("doubling_steps", result.step3.doubling_steps);
        span.set_attr("sparse_flops", result.step3.sparse_flops);
        span.set_attr("perron_iterations", result.step3.perron_iterations);
        span.set_attr("perron_ratio", result.step3.perron_ratio);
        span.set_attr("perron_fallback", result.step3.perron_fallback);
      }
    }
  }
  if (validate) {
    analysis::check_closure(closure);
  }
  snapshot.closure = &closure;
  checkpoint(PipelineStage::RankSearch);

  // Step 4: find the best ranking (max-probability Hamiltonian path).
  // SAPS consumes the closure, writing its cost matrix over the closure's
  // storage, so a job holds one n x n buffer; the snapshot drops it.
  snapshot.closure = nullptr;
  {
    trace::Span span("step4_find_best_ranking");
    switch (config_.search) {
      case RankSearchMethod::Saps: {
        const SapsResult saps =
            saps_search(std::move(closure), config_.saps, rng);
        result.log_probability = -saps.log_cost;
        result.ranking = Ranking(saps.best_path);
        break;
      }
      case RankSearchMethod::Taps: {
        const TapsResult taps = taps_search(closure, config_.taps);
        result.log_probability = taps.log_probability;
        result.ranking = Ranking(taps.best_paths.front());
        break;
      }
      case RankSearchMethod::HeldKarp: {
        const auto path = max_probability_hamiltonian_path(closure);
        CR_ENSURES(path.has_value(),
                   "complete closure must contain a Hamiltonian path");
        result.log_probability = -path_log_cost(closure, *path);
        result.ranking = Ranking(*path);
        break;
      }
    }
    if (span.active()) {
      span.set_attr("log_probability", result.log_probability);
    }
  }
  if (validate) {
    analysis::check_ranking(result.ranking, object_count);
  }
  checkpoint(PipelineStage::Done);

  if (root.active()) {
    root.set_attr("log_probability", result.log_probability);
  }
  result.step1 = std::move(step1);
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (const auto errors = config.validate(); !errors.empty()) {
    throw Error("invalid experiment config: " +
                format_config_errors(errors));
  }
  Rng rng(config.seed);

  // Hidden ground truth: a uniformly random permutation.
  const Ranking truth(
      [&] {
        auto perm = rng.permutation(config.object_count);
        return std::vector<VertexId>(perm.begin(), perm.end());
      }());

  // Budget -> number of unique comparisons l.
  const BudgetModel budget = BudgetModel::for_selection_ratio(
      config.object_count, config.selection_ratio,
      config.reward_per_comparison, config.workers_per_task);
  const std::size_t l = budget.unique_task_count();

  // Task assignment (§IV) and HIT construction (§II).
  TaskAssignment assignment_result =
      generate_task_assignment(config.object_count, l, rng);
  if (config.inference.check_invariants ||
      analysis::invariant_checks_enabled()) {
    analysis::check_task_graph(assignment_result.graph, l);
  }
  const std::vector<Edge> tasks(assignment_result.graph.edges().begin(),
                                assignment_result.graph.edges().end());
  const HitConfig hit_config{config.comparisons_per_hit,
                             config.workers_per_task};
  const HitAssignment assignment(tasks, hit_config, config.worker_pool_size,
                                 rng);

  // One non-interactive crowdsourcing round.
  const auto workers =
      sample_worker_pool(config.worker_pool_size, config.worker_quality, rng);
  const SimulatedCrowd crowd(truth, workers);
  VoteBatch votes = crowd.collect(assignment, rng);

  // Result inference (§V).
  const InferenceEngine engine(config.inference);
  InferenceResult inference =
      engine.infer(std::move(votes), config.object_count,
                   config.worker_pool_size, assignment, rng);

  ExperimentResult result{truth, std::move(inference),
                          assignment_result.stats, 0.0, l,
                          budget.total_cost()};
  result.accuracy = ranking_accuracy(truth, result.inference.ranking);
  return result;
}

}  // namespace crowdrank
