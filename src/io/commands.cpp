#include "io/commands.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "analysis/invariants.hpp"
#include "core/checkpoint.hpp"
#include "core/confidence.hpp"
#include "core/diagnostics.hpp"
#include "core/pipeline.hpp"
#include "core/planning.hpp"
#include "graph/task_graph.hpp"
#include "io/args.hpp"
#include "io/job_record.hpp"
#include "io/records.hpp"
#include "metrics/kendall.hpp"
#include "metrics/spearman.hpp"
#include "metrics/topk.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "service/api.hpp"
#include "service/artifact.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace crowdrank::io {

namespace {

std::vector<const char*> to_argv(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const auto& a : args) argv.push_back(a.c_str());
  return argv;
}

// -- the shared parser table --------------------------------------------
//
// Every command draws its options from these groups, so one concept is
// spelled one way everywhere, and the spellings match the crowdrank::api /
// config field names (--object-count <-> object_count).

std::set<std::string> merge(std::initializer_list<std::set<std::string>>
                                groups) {
  std::set<std::string> all;
  for (const auto& group : groups) {
    all.insert(group.begin(), group.end());
  }
  return all;
}

/// Batch shape: how many objects / workers the data covers.
const std::set<std::string> kShapeOptions{"object-count", "worker-count"};
/// Simulated crowd profile.
const std::set<std::string> kCrowdOptions{"worker-pool", "workers-per-task",
                                          "reward-per-comparison", "quality",
                                          "distribution"};
/// Budget selection.
const std::set<std::string> kBudgetOptions{"selection-ratio", "budget"};
/// Inference pipeline knobs.
const std::set<std::string> kInferenceOptions{"search", "saps-iterations"};
/// Observability outputs.
const std::set<std::string> kObservabilityOptions{"trace", "metrics"};

Args parse_args(const std::vector<const char*>& raw,
                const std::set<std::string>& options,
                const std::set<std::string>& flags = {}) {
  return Args(static_cast<int>(raw.size()), raw.data(), 2, options, flags);
}

WorkerPoolConfig parse_quality(const Args& args) {
  WorkerPoolConfig config;
  const std::string dist = args.get_string("distribution", "gaussian");
  if (dist == "gaussian") {
    config.distribution = QualityDistribution::Gaussian;
  } else if (dist == "uniform") {
    config.distribution = QualityDistribution::Uniform;
  } else {
    throw Error("--distribution must be gaussian or uniform");
  }
  const std::string level = args.get_string("quality", "medium");
  if (level == "high") {
    config.level = QualityLevel::High;
  } else if (level == "medium") {
    config.level = QualityLevel::Medium;
  } else if (level == "low") {
    config.level = QualityLevel::Low;
  } else {
    throw Error("--quality must be high, medium, or low");
  }
  return config;
}

RankSearchMethod search_from_name(const std::string& method) {
  if (method == "saps") return RankSearchMethod::Saps;
  if (method == "taps") return RankSearchMethod::Taps;
  if (method == "heldkarp") return RankSearchMethod::HeldKarp;
  throw Error("search method must be saps, taps, or heldkarp (got '" +
              method + "')");
}

RankSearchMethod parse_search(const Args& args) {
  return search_from_name(args.get_string("search", "saps"));
}

/// Batch shape shared by infer / diagnose / index / query: n and m come
/// from the flags when given, otherwise from the data. index and query
/// must agree on this derivation — the derived counts enter the content
/// key, so a disagreement would be a guaranteed cache miss.
struct BatchShape {
  std::size_t object_count = 0;
  std::size_t worker_count = 0;
};

BatchShape derive_shape(const VoteBatch& votes, const Args& args) {
  std::size_t max_object = 0;
  WorkerId max_worker = 0;
  for (const Vote& v : votes) {
    max_object = std::max({max_object, v.i, v.j});
    max_worker = std::max(max_worker, v.worker);
  }
  return {args.get_size("object-count", max_object + 1),
          args.get_size("worker-count", max_worker + 1)};
}

/// Renumbers the batch's worker ids by their rank among its distinct ids.
/// The map keeps their order, so the engine's bits are those of the
/// original ids; it only stops step 1 from sizing its per-worker state by
/// the largest id.
void compact_worker_ids(VoteBatch& votes) {
  std::vector<WorkerId> ids;
  ids.reserve(votes.size());
  for (const Vote& v : votes) ids.push_back(v.worker);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (Vote& v : votes) {
    v.worker = static_cast<WorkerId>(
        std::lower_bound(ids.begin(), ids.end(), v.worker) - ids.begin());
  }
}

/// The kInferenceOptions knobs applied onto the default config, validated.
/// infer, index, and query all build their configs through this one
/// function, so the same flags always describe the same work (and index /
/// query derive identical cache keys).
InferenceConfig inference_from_args(const Args& args) {
  InferenceConfig config;
  config.search = parse_search(args);
  config.saps.iterations =
      args.get_size("saps-iterations", config.saps.iterations);
  if (const auto errors = config.validate(); !errors.empty()) {
    throw Error("invalid inference config: " + format_config_errors(errors));
  }
  return config;
}

int cmd_assign(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(
      raw, merge({kBudgetOptions,
                  {"object-count", "reward-per-comparison",
                   "workers-per-task", "seed", "tasks-out"}}));
  const std::size_t n = args.require_size("object-count");
  const double reward = args.get_double("reward-per-comparison", 0.025);
  const std::size_t w = args.get_size("workers-per-task", 3);
  Rng rng(args.get_seed("seed", 42));

  BudgetModel budget =
      args.has("budget")
          ? BudgetModel(args.get_double("budget", 0.0), reward, w)
          : BudgetModel::for_selection_ratio(
                n, args.get_double("selection-ratio", 0.1), reward, w);
  const auto assignment =
      generate_task_assignment(n, budget.unique_task_count(), rng);
  const std::vector<Edge> tasks(assignment.graph.edges().begin(),
                                assignment.graph.edges().end());

  out << "objects " << n << ", comparisons " << tasks.size() << " (ratio "
      << budget.selection_ratio(n) << "), degrees "
      << assignment.stats.min_degree << ".." << assignment.stats.max_degree
      << ", Pr_l " << assignment.stats.hp_likelihood_lower_bound
      << ", cost $" << budget.total_cost() << "\n";
  if (args.has("tasks-out")) {
    save_tasks(args.value("tasks-out"), tasks);
    out << "wrote " << args.value("tasks-out") << "\n";
  }
  return 0;
}

int cmd_simulate(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(
      raw, merge({kCrowdOptions,
                  {"object-count", "selection-ratio", "seed", "votes-out",
                   "truth-out", "tasks-out"}}));
  const std::size_t n = args.require_size("object-count");
  Rng rng(args.get_seed("seed", 42));

  const auto truth_perm = rng.permutation(n);
  const Ranking truth(
      std::vector<VertexId>(truth_perm.begin(), truth_perm.end()));
  const std::size_t pool = args.get_size("worker-pool", 30);
  const auto workers = sample_worker_pool(pool, parse_quality(args), rng);
  const BudgetModel budget = BudgetModel::for_selection_ratio(
      n, args.get_double("selection-ratio", 0.1),
      args.get_double("reward-per-comparison", 0.025),
      args.get_size("workers-per-task", 3));
  const auto assignment =
      generate_task_assignment(n, budget.unique_task_count(), rng);
  const std::vector<Edge> tasks(assignment.graph.edges().begin(),
                                assignment.graph.edges().end());
  const HitAssignment hits(
      tasks, HitConfig{5, args.get_size("workers-per-task", 3)}, pool, rng);
  const SimulatedCrowd crowd(truth, workers);
  const VoteBatch votes = crowd.collect(hits, rng);

  out << "simulated " << votes.size() << " votes over " << tasks.size()
      << " comparisons of " << n << " objects ($" << budget.total_cost()
      << ")\n";
  if (args.has("votes-out")) {
    save_votes(args.value("votes-out"), votes);
    out << "wrote " << args.value("votes-out") << "\n";
  }
  if (args.has("truth-out")) {
    save_ranking(args.value("truth-out"), truth);
    out << "wrote " << args.value("truth-out") << "\n";
  }
  if (args.has("tasks-out")) {
    save_tasks(args.value("tasks-out"), tasks);
    out << "wrote " << args.value("tasks-out") << "\n";
  }
  return 0;
}

int cmd_infer(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(
      raw,
      merge({kShapeOptions, kInferenceOptions, kObservabilityOptions,
             {"votes", "seed", "ranking-out"}}),
      {"check-invariants"});
  VoteBatch votes = load_votes(args.require_string("votes"));
  CR_EXPECTS(!votes.empty(), "votes file contains no votes");
  // Without --worker-count, step 1 is sized by the workers that voted.
  if (!args.has("worker-count")) {
    compact_worker_ids(votes);
  }
  const auto [n, m] = derive_shape(votes, args);

  // Observability outputs: --trace (Chrome trace-event JSON) and --metrics
  // (RunReport JSON). CROWDRANK_TRACE=path stands in for --trace when the
  // flag is absent, so traces can be pulled from wrapped invocations.
  std::string trace_path = args.get_string("trace", "");
  if (trace_path.empty()) {
    if (const char* env = std::getenv("CROWDRANK_TRACE")) {
      trace_path = env;
    }
  }
  const std::string metrics_path = args.get_string("metrics", "");
  std::unique_ptr<trace::TraceSink> sink;
  if (!trace_path.empty() || !metrics_path.empty()) {
    sink = std::make_unique<trace::TraceSink>();
  }

  InferenceConfig config = inference_from_args(args);
  // Stage invariant validation: --check-invariants, or the process-wide
  // CROWDRANK_CHECK_INVARIANTS env switch (analysis/invariants.hpp).
  config.check_invariants = args.flag("check-invariants");
  // The boundary confidence below reads step 3's closure, which step 4
  // consumes: copy it at the checkpoint between them.
  ClosureCapture capture;
  config.control = &capture;
  const InferenceEngine engine(config);
  Rng rng(args.get_seed("seed", 1));
  const trace::ScopedSink scoped_sink(sink.get());
  const InferenceResult result = engine.infer(votes, n, m, rng);

  out << "inferred full ranking of " << n << " objects from "
      << votes.size() << " votes by " << m << " workers\n";
  if (config.check_invariants || analysis::invariant_checks_enabled()) {
    out << "invariant checks: all stage validators passed\n";
  }
  out << "truth discovery: " << result.step1.iterations << " iterations ("
      << result.step1.full_passes << " over every task), "
      << result.step1.contested_tasks << " of " << result.step1.truths.size()
      << " tasks contested, " << result.one_edge_count
      << " 1-edges smoothed\n";
  out << "log preference probability: " << result.log_probability << "\n";
  // How rankable the batch is: how fast its walk mixes, and whether step 3
  // fell back from the Perron limit to the doubling.
  out << "propagation: " << result.step3.perron_iterations
      << " Perron iterations, residual ratio " << result.step3.perron_ratio
      << (result.step3.perron_fallback ? ", fell back to the doubling" : "")
      << "\n";
  const RankingConfidence confidence =
      ranking_confidence(capture.closure(), result.ranking);
  const auto tied =
      effectively_tied_groups(capture.closure(), result.ranking, 0.55);
  out << "boundary confidence: mean " << confidence.mean_belief << ", min "
      << confidence.min_belief << " (weakest boundary at position "
      << confidence.weakest_boundary << "); " << tied.size()
      << " groups at tie threshold 0.55\n";
  out << "ranking:";
  for (std::size_t p = 0; p < std::min<std::size_t>(n, 20); ++p) {
    out << ' ' << result.ranking.object_at(p);
  }
  if (n > 20) out << " ...";
  out << "\n";
  if (args.has("ranking-out")) {
    save_ranking(args.value("ranking-out"), result.ranking);
    out << "wrote " << args.value("ranking-out") << "\n";
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    CR_EXPECTS(os.good(), "cannot open --trace output file");
    sink->write_chrome_trace(os);
    out << "wrote " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    trace::RunReport report("crowdrank infer");
    report.note("votes_file", args.require_string("votes"));
    report.note("objects", static_cast<std::int64_t>(n));
    report.note("workers", static_cast<std::int64_t>(m));
    report.note("votes", static_cast<std::int64_t>(votes.size()));
    report.note("search", args.get_string("search", "saps"));
    report.note("seed",
                static_cast<std::int64_t>(args.get_seed("seed", 1)));
    report.note("saps_iterations",
                static_cast<std::int64_t>(config.saps.iterations));
    trace::RunReport::Run& run = report.add_run("infer");
    run.note("log_probability", result.log_probability);
    run.note("one_edges", static_cast<std::int64_t>(result.one_edge_count));
    run.note("truth_discovery_iterations",
             static_cast<std::int64_t>(result.step1.iterations));
    run.note("truth_discovery_full_passes",
             static_cast<std::int64_t>(result.step1.full_passes));
    run.note("contested_tasks",
             static_cast<std::int64_t>(result.step1.contested_tasks));
    run.note("perron_iterations",
             static_cast<std::int64_t>(result.step3.perron_iterations));
    run.note("perron_ratio", result.step3.perron_ratio);
    run.note("perron_fallback", result.step3.perron_fallback);
    run.capture(*sink);
    CR_EXPECTS(report.write_file(metrics_path),
               "cannot write --metrics output file");
    out << "wrote " << metrics_path << "\n";
  }
  return 0;
}

// -- crowdrank index / query: persistent artifacts + warm serving --------

/// The request both commands build; everything here enters the content
/// key, so index and query share one constructor for it.
api::Request request_from_args(const Args& args, VoteBatch votes,
                               service::ResultCache& cache) {
  api::Request request;
  const BatchShape shape = derive_shape(votes, args);
  request.votes = std::move(votes);
  request.object_count = shape.object_count;
  request.worker_count = shape.worker_count;
  request.seed = args.get_seed("seed", 1);
  request.inference = inference_from_args(args);
  request.cache = &cache;
  return request;
}

int cmd_index(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(
      raw, merge({kShapeOptions, kInferenceOptions,
                  {"votes", "seed", "artifacts"}}));
  VoteBatch votes = load_votes(args.require_string("votes"));
  CR_EXPECTS(!votes.empty(), "votes file contains no votes");
  const std::string dir = args.require_string("artifacts");

  // The ranked result lands on the cache's disk tier (<dir>/<key>.crart).
  // Refresh recomputes even when a stale artifact already sits under the
  // same key, so `index` is always overwrite-with-fresh-truth.
  service::ResultCacheConfig cache_config;
  cache_config.capacity = 1;
  cache_config.disk_dir = dir;
  service::ResultCache cache(cache_config);

  api::Request request = request_from_args(args, std::move(votes), cache);
  request.cache_control = service::CacheControl::Refresh;
  const api::Response response = api::rank(request);
  if (!response.ok()) {
    out << "indexing failed (" << service::outcome_name(response.outcome)
        << " at stage " << stage_name(response.stage)
        << "): " << response.reason << "\n";
    return 2;
  }

  out << "indexed " << request.object_count << " objects from "
      << request.votes.size() << " votes (seed " << request.seed << ")\n";
  out << "artifact key " << response.artifact_key << " (result schema "
      << response.artifact_schema_version << ")\n";
  return 0;
}

int cmd_query(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(
      raw, merge({kShapeOptions, kInferenceOptions,
                  {"votes", "seed", "artifacts", "ranking-out"}}));
  VoteBatch votes = load_votes(args.require_string("votes"));
  CR_EXPECTS(!votes.empty(), "votes file contains no votes");

  service::ResultCacheConfig cache_config;
  cache_config.capacity = 1;
  cache_config.disk_dir = args.require_string("artifacts");
  service::ResultCache cache(cache_config);

  api::Request request = request_from_args(args, std::move(votes), cache);
  request.cache_control = service::CacheControl::RequireHit;
  const api::Response response = api::rank(request);
  if (!response.served_from_cache) {
    // RequireHit turns a miss into a structured Rejected outcome; the
    // reason names the missing key. Exit 2 = "not indexed", distinct from
    // usage errors (1).
    out << "query miss: " << response.reason << "\n";
    return 2;
  }

  out << "served from artifact " << response.artifact_key
      << " (result schema " << response.artifact_schema_version
      << "), outcome " << service::outcome_name(response.outcome) << "\n";
  out << "log preference probability: " << response.log_probability << "\n";
  const std::vector<VertexId>& order = response.ranking.order;
  out << "ranking:";
  for (std::size_t p = 0; p < std::min<std::size_t>(order.size(), 20); ++p) {
    out << ' ' << order[p];
  }
  if (order.size() > 20) out << " ...";
  out << "\n";
  if (!response.ranking.excluded.empty()) {
    out << response.ranking.excluded.size()
        << " objects excluded (degraded result)\n";
  }
  if (args.has("ranking-out")) {
    save_ranking(args.value("ranking-out"),
                 Ranking(std::vector<VertexId>(order)));
    out << "wrote " << args.value("ranking-out") << "\n";
  }
  return 0;
}

int cmd_eval(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(raw, {"reference", "ranking", "k"});
  const Ranking reference = load_ranking(args.require_string("reference"));
  const Ranking ranking = load_ranking(args.require_string("ranking"));
  CR_EXPECTS(reference.size() == ranking.size(),
             "rankings cover different object counts");

  out << "objects            : " << reference.size() << "\n";
  out << "accuracy (1 - KT)  : " << ranking_accuracy(reference, ranking)
      << "\n";
  out << "kendall tau coeff  : "
      << kendall_tau_coefficient(reference, ranking) << "\n";
  out << "spearman rho       : " << spearman_rho(reference, ranking) << "\n";
  if (args.has("k")) {
    const std::size_t k = args.get_size("k", 5);
    out << "top-" << k << " precision    : "
        << top_k_precision(reference, ranking, k) << "\n";
    out << "top-" << k << " pair accuracy: "
        << top_k_pair_accuracy(reference, ranking, k) << "\n";
  }
  return 0;
}

int cmd_diagnose(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(raw, merge({kShapeOptions, {"votes"}}));
  const VoteBatch votes = load_votes(args.require_string("votes"));
  CR_EXPECTS(!votes.empty(), "votes file contains no votes");
  const auto [n, m] = derive_shape(votes, args);
  const RankabilityReport report = diagnose_votes(votes, n, m);
  out << format_report(report);
  return report.rankable ? 0 : 2;
}

int cmd_plan(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(
      raw,
      merge({kCrowdOptions, {"object-count", "target-accuracy", "seed"}}));
  PlanningConfig config;
  config.object_count = args.require_size("object-count");
  config.target_accuracy = args.get_double("target-accuracy", 0.9);
  config.worker_pool_size = args.get_size("worker-pool", 30);
  config.workers_per_task = args.get_size("workers-per-task", 3);
  config.reward_per_comparison =
      args.get_double("reward-per-comparison", 0.025);
  config.worker_quality = parse_quality(args);
  config.seed = args.get_seed("seed", 1);

  const auto plan = plan_budget_for_accuracy(config);
  if (!plan.has_value()) {
    out << "no budget reaches accuracy " << config.target_accuracy
        << " with this crowd profile (even all pairs miss it)\n";
    return 1;
  }
  out << "cheapest plan clearing accuracy " << config.target_accuracy
      << ":\n";
  out << "  selection ratio   : " << plan->selection_ratio << "\n";
  out << "  comparisons       : " << plan->unique_comparisons << "\n";
  out << "  cost              : $" << plan->total_cost << "\n";
  out << "  estimated accuracy: " << plan->estimated_accuracy << "\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(
      raw,
      merge({kObservabilityOptions,
             {"jobs", "results", "service-workers", "queue-capacity",
              "queue-policy", "deadline-ms", "telemetry",
              "telemetry-period-ms", "cache-dir", "cache-capacity"}}),
      {"check-invariants"});
  const std::vector<JobRecord> records =
      load_job_records(args.require_string("jobs"));
  CR_EXPECTS(!records.empty(), "jobs file contains no jobs");

  // Like infer, serve records a trace only when an output asks for one.
  std::unique_ptr<trace::TraceSink> sink;
  if (args.has("trace") || args.has("metrics")) {
    sink = std::make_unique<trace::TraceSink>();
  }
  service::ServiceConfig config;
  config.worker_count = args.get_size("service-workers", 1);
  config.queue_capacity = args.get_size("queue-capacity", records.size());
  const std::string policy = args.get_string("queue-policy", "reject");
  if (policy == "reject") {
    config.policy = service::QueuePolicy::RejectNew;
  } else if (policy == "shed-oldest") {
    config.policy = service::QueuePolicy::ShedOldest;
  } else {
    throw Error("--queue-policy must be reject or shed-oldest");
  }
  config.default_deadline =
      std::chrono::milliseconds(args.get_size("deadline-ms", 0));
  config.check_invariants = args.flag("check-invariants");
  config.trace = sink.get();

  // The live telemetry plane (--telemetry DIR): periodic JSONL +
  // Prometheus snapshots while the batch runs, plus per-job postmortems.
  // Constructed before the service scope and reset right after it, so the
  // final flush lands before the results are reported.
  std::optional<obs::Telemetry> telemetry;
  if (args.has("telemetry")) {
    obs::TelemetryConfig telemetry_config;
    telemetry_config.directory = args.value("telemetry");
    telemetry_config.period = std::chrono::milliseconds(
        args.get_size("telemetry-period-ms", 250));
    telemetry.emplace(std::move(telemetry_config), config.worker_count);
    config.telemetry = &*telemetry;
  }

  // Warm-path result cache (--cache-dir / --cache-capacity), shared by
  // all executors; repeat jobs in the batch settle from it without the
  // infer stage. With --cache-dir the disk tier holds the same
  // <key>.crart files `crowdrank index` writes, so it persists across
  // serve runs. The cache keeps its own stats; per-job hit/miss counters
  // land on telemetry.
  std::optional<service::ResultCache> cache;
  if (args.has("cache-dir") || args.has("cache-capacity")) {
    service::ResultCacheConfig cache_config;
    cache_config.capacity =
        std::max<std::size_t>(1, args.get_size("cache-capacity", 64));
    cache_config.disk_dir = args.get_string("cache-dir", "");
    cache.emplace(std::move(cache_config));
    config.cache = &*cache;
  }

  // Jobs whose votes file cannot be read still get a structured Failed
  // line instead of aborting the whole batch. `slots` maps each record to
  // its drained result (or the synthesized failure).
  std::vector<service::JobResult> results(records.size());
  std::vector<std::size_t> submitted_slots;
  {
    service::RankingService svc(config);
    for (std::size_t slot = 0; slot < records.size(); ++slot) {
      const JobRecord& record = records[slot];
      service::RankingJob job;
      try {
        job.votes = load_votes(record.votes_path);
        job.inference.search = search_from_name(record.search);
      } catch (const std::exception& e) {
        results[slot].id = record.id;
        results[slot].outcome = service::JobOutcome::Failed;
        results[slot].stage = PipelineStage::Validation;
        results[slot].reason = e.what();
        continue;
      }
      job.object_count = record.object_count;
      job.worker_count = record.worker_count;
      job.seed = record.seed;
      job.deadline = std::chrono::milliseconds(record.deadline_ms);
      if (record.saps_iterations > 0) {
        job.inference.saps.iterations = record.saps_iterations;
      }
      if (!record.fail_before.empty()) {
        // Validated at parse time, so the lookup cannot miss here.
        job.fault.fail_before = stage_from_name(record.fail_before);
        if (!record.fail_reason.empty()) {
          job.fault.fail_reason = record.fail_reason;
        }
      }
      svc.submit(std::move(job));
      submitted_slots.push_back(slot);
    }
    const std::vector<service::JobResult> drained = svc.drain();
    for (std::size_t k = 0; k < drained.size(); ++k) {
      results[submitted_slots[k]] = drained[k];
      results[submitted_slots[k]].id = records[submitted_slots[k]].id;
    }
  }
  if (telemetry.has_value()) {
    const std::string dir = telemetry->config().directory;
    telemetry.reset();  // stops the exporter and flushes a final snapshot
    out << "wrote telemetry to " << dir << "\n";
  }
  if (cache.has_value()) {
    const service::CacheStats cache_stats = cache->stats();
    out << "cache: " << (cache_stats.hits + cache_stats.disk_hits)
        << " hits (" << cache_stats.disk_hits << " disk), "
        << cache_stats.misses << " misses, " << cache_stats.evictions
        << " evictions\n";
  }

  std::size_t ok_count = 0;
  std::map<std::string, std::size_t> outcome_counts;
  for (const service::JobResult& r : results) {
    ++outcome_counts[service::outcome_name(r.outcome)];
    if (r.outcome == service::JobOutcome::Completed ||
        r.outcome == service::JobOutcome::Degraded) {
      ++ok_count;
    }
  }

  if (args.has("results")) {
    std::ofstream os(args.value("results"));
    CR_EXPECTS(os.good(), "cannot open --results output file");
    for (const service::JobResult& r : results) {
      os << format_job_result(r) << "\n";
    }
    out << "wrote " << args.value("results") << "\n";
  } else {
    for (const service::JobResult& r : results) {
      out << format_job_result(r, /*include_ranking=*/false) << "\n";
    }
  }
  out << "served " << records.size() << " jobs with "
      << config.worker_count << " workers: ";
  bool first = true;
  for (const auto& [name, count] : outcome_counts) {
    if (!first) out << ", ";
    out << count << " " << name;
    first = false;
  }
  out << "\n";

  if (args.has("trace")) {
    std::ofstream os(args.value("trace"));
    CR_EXPECTS(os.good(), "cannot open --trace output file");
    sink->write_chrome_trace(os);
    out << "wrote " << args.value("trace") << "\n";
  }
  if (args.has("metrics")) {
    trace::RunReport report("crowdrank serve");
    report.note("jobs_file", args.require_string("jobs"));
    report.note("jobs", static_cast<std::int64_t>(records.size()));
    report.note("service_workers",
                static_cast<std::int64_t>(config.worker_count));
    report.note("queue_policy", policy);
    trace::RunReport::Run& run = report.add_run("serve");
    for (const auto& [name, count] : outcome_counts) {
      run.note("outcome_" + name, static_cast<std::int64_t>(count));
    }
    run.capture(*sink);
    CR_EXPECTS(report.write_file(args.value("metrics")),
               "cannot write --metrics output file");
    out << "wrote " << args.value("metrics") << "\n";
  }
  return ok_count == records.size() ? 0 : 2;
}

// -- crowdrank top: render the live telemetry stream ---------------------

/// Accepts either the telemetry directory or the telemetry.jsonl file.
std::string telemetry_file(const std::string& arg) {
  const std::filesystem::path path(arg);
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return (path / "telemetry.jsonl").string();
  }
  return arg;
}

/// Parses every complete snapshot line. A malformed line is skipped, not
/// fatal: the exporter may be mid-append while we read (tail semantics).
std::vector<obs::JsonValue> load_snapshots(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw Error("cannot open telemetry file '" + path + "'");
  }
  std::vector<obs::JsonValue> snapshots;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    try {
      obs::JsonValue value = obs::parse_json(line);
      if (value.kind == obs::JsonValue::Kind::Object) {
        snapshots.push_back(std::move(value));
      }
    } catch (const Error&) {
      // truncated trailing line during a live append
    }
  }
  return snapshots;
}

void render_top(const std::vector<obs::JsonValue>& snapshots,
                std::size_t rows, std::ostream& out) {
  const auto as_count = [](double v) {
    return std::to_string(static_cast<std::uint64_t>(v));
  };

  // History: one row per snapshot window, newest last.
  TableWriter history({"seq", "uptime_s", "jobs/s", "p50_ms", "p99_ms",
                       "queue", "finished"});
  const std::size_t first =
      snapshots.size() > rows ? snapshots.size() - rows : 0;
  for (std::size_t i = first; i < snapshots.size(); ++i) {
    const obs::JsonValue& s = snapshots[i];
    const obs::JsonValue* window = s.find("window");
    const obs::JsonValue* gauges = s.find("gauges");
    double p50 = 0.0;
    double p99 = 0.0;
    if (const obs::JsonValue* histograms = s.find("histograms")) {
      if (const obs::JsonValue* job = histograms->find("service.job_ms")) {
        p50 = job->number_at("p50", 0.0);
        p99 = job->number_at("p99", 0.0);
      }
    }
    history.add_row(
        {as_count(s.number_at("seq", 0.0)),
         TableWriter::fmt(s.number_at("t_us", 0.0) / 1e6, 1),
         TableWriter::fmt(
             window != nullptr ? window->number_at("jobs_per_sec", 0.0)
                               : 0.0,
             2),
         TableWriter::fmt(p50, 2), TableWriter::fmt(p99, 2),
         as_count(gauges != nullptr
                      ? gauges->number_at("service.queue_depth", 0.0)
                      : 0.0),
         as_count(window != nullptr ? window->number_at("finished", 0.0)
                                    : 0.0)});
  }
  history.print_aligned(out);

  const obs::JsonValue& latest = snapshots.back();

  // Outcome counters of the latest snapshot, one summary line.
  if (const obs::JsonValue* counters = latest.find("counters")) {
    const std::string outcome_prefix = "service.outcome.";
    bool any = false;
    for (const auto& [name, value] : counters->members) {
      if (name.rfind(outcome_prefix, 0) != 0 || !value.is_number()) {
        continue;
      }
      out << (any ? ", " : "\noutcomes: ")
          << name.substr(outcome_prefix.size()) << " "
          << as_count(value.number);
      any = true;
    }
    if (any) {
      out << "\n";
    }
  }

  // Per-stage latency ladder of the latest snapshot.
  if (const obs::JsonValue* histograms = latest.find("histograms")) {
    TableWriter stages({"stage", "count", "p50_ms", "p99_ms", "total_ms"});
    const std::string stage_prefix = "service.stage_ms.";
    for (const auto& [name, value] : histograms->members) {
      if (name.rfind(stage_prefix, 0) != 0) {
        continue;
      }
      stages.add_row({name.substr(stage_prefix.size()),
                      as_count(value.number_at("count", 0.0)),
                      TableWriter::fmt(value.number_at("p50", 0.0), 2),
                      TableWriter::fmt(value.number_at("p99", 0.0), 2),
                      TableWriter::fmt(value.number_at("sum", 0.0), 1)});
    }
    if (stages.row_count() > 0) {
      out << "\n";
      stages.print_aligned(out);
    }
  }
}

int cmd_top(const std::vector<std::string>& argv, std::ostream& out) {
  const auto raw = to_argv(argv);
  const Args args = parse_args(raw, {"telemetry", "interval-ms", "rows"},
                               {"follow"});
  const std::string path = telemetry_file(args.require_string("telemetry"));
  const std::size_t rows = std::max<std::size_t>(1, args.get_size("rows", 10));
  const bool follow = args.flag("follow");
  const auto interval =
      std::chrono::milliseconds(args.get_size("interval-ms", 500));

  bool rendered = false;
  while (true) {
    const std::vector<obs::JsonValue> snapshots = load_snapshots(path);
    if (follow) {
      out << "\x1b[2J\x1b[H";  // clear + home between refreshes
    }
    if (snapshots.empty()) {
      out << "no telemetry snapshots yet in " << path << "\n";
    } else {
      rendered = true;
      render_top(snapshots, rows, out);
    }
    if (!follow) {
      break;
    }
    std::this_thread::sleep_for(interval);
  }
  return rendered ? 0 : 2;
}

}  // namespace

std::string cli_usage() {
  std::ostringstream usage;
  usage
      << "crowdrank — pairwise ranking aggregation by non-interactive "
         "crowdsourcing\n\n"
      << "usage: crowdrank <command> [options]\n\n"
      << "commands:\n"
      << "  assign    --object-count N [--selection-ratio R | --budget $]\n"
      << "            [--reward-per-comparison $] [--workers-per-task W]\n"
      << "            [--seed S] [--tasks-out F]\n"
      << "  simulate  --object-count N [--selection-ratio R]\n"
      << "            [--worker-pool M] [--workers-per-task W]\n"
      << "            [--quality high|medium|low]\n"
      << "            [--distribution gaussian|uniform] [--seed S]\n"
      << "            [--votes-out F] [--truth-out F] [--tasks-out F]\n"
      << "  infer     --votes F [--object-count N] [--worker-count M]\n"
      << "            [--search saps|taps|heldkarp] [--saps-iterations I]\n"
      << "            [--seed S] [--ranking-out F] [--check-invariants]\n"
      << "            [--trace F.json] [--metrics F.json]\n"
      << "            (CROWDRANK_TRACE=F.json substitutes for --trace;\n"
      << "             CROWDRANK_CHECK_INVARIANTS=1 for --check-invariants)\n"
      << "  index     --votes F --artifacts DIR [--object-count N]\n"
      << "            [--worker-count M] [--search ...] "
         "[--saps-iterations I]\n"
      << "            [--seed S]\n"
      << "            (ranks and persists the result as one framed file,\n"
      << "             DIR/<key>.crart, named by its content key)\n"
      << "  query     --votes F --artifacts DIR [--object-count N]\n"
      << "            [--worker-count M] [--search ...] "
         "[--saps-iterations I]\n"
      << "            [--seed S] [--ranking-out F]\n"
      << "            (serves the stored result without running inference;\n"
      << "             exit 2 when DIR holds no result for this work)\n"
      << "  serve     --jobs F.jsonl [--results F.jsonl]\n"
      << "            [--service-workers N] [--queue-capacity C]\n"
      << "            [--queue-policy reject|shed-oldest] [--deadline-ms D]\n"
      << "            [--check-invariants] [--trace F.json]\n"
      << "            [--metrics F.json] [--telemetry DIR]\n"
      << "            [--telemetry-period-ms P] [--cache-dir DIR]\n"
      << "            [--cache-capacity C]\n"
      << "            (exit 0 all jobs ranked, 2 otherwise; --telemetry\n"
      << "             writes telemetry.jsonl, metrics.prom, postmortems/;\n"
      << "             --cache-dir/--cache-capacity serve repeat jobs from\n"
      << "             the result cache)\n"
      << "  top       --telemetry DIR|F.jsonl [--follow] [--interval-ms I]\n"
      << "            [--rows N]\n"
      << "            (renders the serve telemetry stream as a live table;\n"
      << "             one-shot by default, exit 2 when no snapshots yet)\n"
      << "  eval      --reference F --ranking F [--k K]\n"
      << "  diagnose  --votes F [--object-count N] [--worker-count M]\n"
      << "            (exit 0 rankable, 2 not cleanly rankable)\n"
      << "  plan      --object-count N [--target-accuracy A]\n"
      << "            [--worker-pool M] [--workers-per-task W]\n"
      << "            [--reward-per-comparison $] [--quality ...]\n"
      << "            [--distribution ...] [--seed S]\n"
      << "  version   print build information (also --version)\n";
  return usage.str();
}

int run_cli(const std::vector<std::string>& argv, std::ostream& out,
            std::ostream& err) {
  try {
    if (argv.size() < 2) {
      err << cli_usage();
      return 1;
    }
    const std::string& command = argv[1];
    if (command == "assign") return cmd_assign(argv, out);
    if (command == "simulate") return cmd_simulate(argv, out);
    if (command == "infer") return cmd_infer(argv, out);
    if (command == "index") return cmd_index(argv, out);
    if (command == "query") return cmd_query(argv, out);
    if (command == "serve") return cmd_serve(argv, out);
    if (command == "top") return cmd_top(argv, out);
    if (command == "eval") return cmd_eval(argv, out);
    if (command == "plan") return cmd_plan(argv, out);
    if (command == "diagnose") return cmd_diagnose(argv, out);
    if (command == "version" || command == "--version") {
      out << build_info_string() << "\n";
      return 0;
    }
    if (command == "help" || command == "--help") {
      out << cli_usage();
      return 0;
    }
    err << "unknown command '" << command << "'\n\n" << cli_usage();
    return 1;
  } catch (const std::exception& e) {
    // crowdrank::Error and whatever else a command lets escape, such as
    // std::bad_alloc when a shape flag asks for more memory than there is.
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace crowdrank::io
