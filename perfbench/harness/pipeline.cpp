// The pipeline workloads, paper_n1000 and sparse_n2000: a closed loop with
// one job at a time on a kernel pool fixed at two threads. A job plans its
// HITs (timed), simulates the crowd round (input, untimed) and ranks the
// votes through api::rank (timed).
#include <cmath>

#include "bench.hpp"

namespace perfbench {

namespace {

using namespace crowdrank;

constexpr std::size_t kPoolWidth = 2;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kProbeJobs = 2;

struct Shape {
  std::size_t n = 0;
  double ratio = 0.0;
  std::size_t horizon = 0;  ///< spectral_horizon (0 = the engine default)
  /// Accuracy of the default seed at full size, repeated exactly.
  double accuracy_pin = 0.0;
  /// Accuracy every other seed must reach.
  double accuracy_floor = 0.0;
  /// Accuracy averages timed jobs 0..scored_jobs-1; a run times at least
  /// that many jobs, so the figure repeats exactly for a given seed.
  std::size_t scored_jobs = 1;
};

Shape shape_of(const Options& options) {
  if (options.workload == "paper_n1000") {
    // The paper's headline simulated point (§VI): n = 1000, r = 0.1.
    return options.toy ? Shape{60, 0.1, 0, 0.0, 0.7, 2}
                       : Shape{1000, 0.1, 0, 0.96556356356356354, 0.9, 4};
  }
  // A degree-d budget, r = d / (n - 1): degree 16 at n = 2000 with walk
  // horizon 8 (horizon 4 ranks near chance).
  const std::size_t n = options.toy ? 120 : 2000;
  const double degree = options.toy ? 8.0 : 16.0;
  return {n, degree / static_cast<double>(n - 1), 8, 0.90530765382691347,
          0.6, options.toy ? std::size_t{2} : 8};
}

struct Sample {
  std::vector<double> plan_ms;
  std::vector<double> rank_ms;
  std::vector<double> latency_ms;
  std::vector<double> accuracy;
  std::vector<std::vector<VertexId>> orders;
  /// Traced run: vote batches of the first jobs, hardened again apart.
  std::vector<VoteBatch> probe_batches;
  double wall_s = 0.0;
  double cpu_per_wall = 0.0;
  double steal_pct = 0.0;

  std::size_t jobs() const { return latency_ms.size(); }
  /// Jobs per second of timed work: the crowd round between plan and rank
  /// is input generation, so it is left out of the denominator.
  double throughput() const {
    double timed_ms = 0.0;
    for (const double ms : latency_ms) {
      timed_ms += ms;
    }
    return timed_ms > 0.0 ? static_cast<double>(jobs()) * 1e3 / timed_ms : 0.0;
  }
};

class Runner {
 public:
  Runner(const Options& options, Report& report)
      : options_(options),
        shape_(shape_of(options)),
        tasks_(task_count(shape_.n, shape_.ratio)),
        report_(report) {}

  const Shape& shape() const { return shape_; }

  /// Runs job `index` of `stream` and appends its figures to `sample`.
  /// With a span log it also records the job's spans and adds its layer
  /// figures (sums; the caller divides by the job count).
  void run(std::uint64_t stream, std::uint64_t index, Sample& sample,
           SpanLog* log, LayerFigures* layers);

  /// Times jobs 0, 1, ... of the timed stream until `seconds` have passed
  /// and at least `min_jobs` have finished.
  Sample timed(double seconds, std::size_t min_jobs, SpanLog* log,
               LayerFigures* layers);

  /// Times harden_votes alone on the traced jobs' batches: it is part of
  /// pre-engine time, measured apart after the traced phase.
  void probe_harden(const Sample& traced, SpanLog& log, LayerFigures& f);

 private:
  const Options& options_;
  const Shape shape_;
  const std::size_t tasks_;
  Report& report_;
};

void Runner::run(std::uint64_t stream, std::uint64_t index, Sample& sample,
                 SpanLog* log, LayerFigures* layers) {
  const std::uint64_t seed = derive_seed(options_.seed, stream, index);
  const auto job_start = Clock::now();
  CrowdRound round = simulate_round(seed, shape_.n, tasks_);

  api::Request request;
  request.votes = std::move(round.votes);
  request.object_count = shape_.n;
  request.worker_count = kWorkerPool;
  request.seed = seed;
  request.inference.propagation.spectral_horizon = shape_.horizon;
  StageStamps stamps;
  if (log != nullptr) {
    request.inference.control = &stamps;
  }
  const auto enter = Clock::now();
  api::Response response = api::rank(request);
  const auto leave = Clock::now();

  const AllocPause bookkeeping;
  ++report_.attempted;
  const std::string job = "job " + std::to_string(index) + " (stream " +
                          std::to_string(stream) + ")";
  if (options_.inject == "wrong_ranking" && stream == kTimedStream &&
      index == 0 && response.ranking.order.size() > 1) {
    response.ranking.order[1] = response.ranking.order[0];
  }
  const std::string error =
      result_error(response, response.ranking, shape_.n);
  if (!error.empty()) {
    report_.fail(job + ": " + error);
  }

  const double plan_ms = ms_between(round.plan_start, round.planned);
  const double rank_ms = ms_between(enter, leave);
  sample.plan_ms.push_back(plan_ms);
  sample.rank_ms.push_back(rank_ms);
  sample.latency_ms.push_back(plan_ms + rank_ms);
  sample.accuracy.push_back(
      error.empty() ? accuracy_of(round.truth, response.ranking) : 0.0);
  sample.orders.push_back(response.ranking.order);

  if (log == nullptr) {
    return;
  }
  const int job_span = log->reserve_id();
  const int plan_span =
      log->add("plan", job_span, index, round.plan_start, round.planned);
  log->add("core.task_assignment", plan_span, index, round.plan_start,
           round.assigned);
  log->add("crowd.hit_build", plan_span, index, round.assigned,
           round.planned);
  const int rank_span = log->add("rank", job_span, index, enter, leave);
  log->set(job_span, "job", SpanLog::kNoParent, index, job_start, leave);

  layers->task_assignment_ms += ms_between(round.plan_start, round.assigned);
  layers->hit_build_ms += ms_between(round.assigned, round.planned);
  if (!stamps.complete()) {
    report_.fail(job + ": stage checkpoints missing or out of order");
  } else {
    const std::vector<double> intervals =
        stamps.record(*log, rank_span, index, enter, leave);
    double sum = 0.0;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      layers->rank_intervals_ms[i] += intervals[i];
      sum += intervals[i];
    }
    if (std::abs(sum - rank_ms) > 1e-6) {
      report_.fail(job + ": rank intervals do not add up to rank time");
    }
  }
  if (response.inference) {
    add_engine_counts(*layers, *response.inference, shape_.horizon,
                      request.inference.propagation.max_length);
  }

  if (sample.probe_batches.size() < kProbeJobs) {
    sample.probe_batches.push_back(std::move(request.votes));
  }
}

void Runner::probe_harden(const Sample& traced, SpanLog& log,
                          LayerFigures& f) {
  for (std::size_t i = 0; i < traced.probe_batches.size(); ++i) {
    const auto start = Clock::now();
    const service::HardenedBatch hardened =
        service::harden_votes(traced.probe_batches[i], shape_.n);
    const auto end = Clock::now();
    log.add("service.harden", SpanLog::kNoParent, i, start, end);
    f.harden_ms += ms_between(start, end);
    if (!hardened.usable()) {
      report_.fail("job " + std::to_string(i) +
                   ": hardening left no usable batch");
    }
  }
  f.harden_ms /= static_cast<double>(traced.probe_batches.size());
}

Sample Runner::timed(double seconds, std::size_t min_jobs, SpanLog* log,
                     LayerFigures* layers) {
  Sample sample;
  const Phase phase;
  for (std::uint64_t i = 0;
       sample.jobs() < min_jobs || phase.elapsed_s() < seconds; ++i) {
    run(kTimedStream, i, sample, log, layers);
  }
  sample.wall_s = phase.elapsed_s();
  sample.cpu_per_wall = (cpu_ms() - phase.cpu_start) / (sample.wall_s * 1e3);
  sample.steal_pct = steal_pct(phase.ticks, cpu_ticks());
  return sample;
}

}  // namespace

Report run_pipeline(const Options& options) {
  Report report;
  Runner runner(options, report);
  const Shape& shape = runner.shape();
  record_environment(report, kPoolWidth, 0, 1);

  // Set-up: start the kernel pool and run one discarded warm-up job.
  // Repeated so the reported figure is a median, not one cold start.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    const auto start = rep == 0 ? options.started : Clock::now();
    set_thread_count(1);
    set_thread_count(kPoolWidth);
    Sample warmup;
    runner.run(kWarmupStream, 0, warmup, nullptr, nullptr);
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  if (!options.trace) {
    const Sample s = runner.timed(options.seconds, shape.scored_jobs,
                                  nullptr, nullptr);
    const std::vector<double> scored(
        s.accuracy.begin(),
        s.accuracy.begin() + static_cast<std::ptrdiff_t>(shape.scored_jobs));
    EndToEnd e;
    e.setup_s = quantile(setup_s, 0.5);
    e.latency_ms_p50 = quantile(s.latency_ms, 0.5);
    e.throughput_jobs_s = s.throughput();
    e.accuracy = mean(scored);
    e.peak_rss_mb = peak_rss_mb();
    emit(report, e);

    check_accuracy(report, options, e.accuracy, shape.accuracy_pin,
                   shape.accuracy_floor);
    report.note("plan_ms_p50", quantile(s.plan_ms, 0.5), "ms");
    report.note("rank_ms_p50", quantile(s.rank_ms, 0.5), "ms");
    report.note("jobs", static_cast<double>(s.jobs()), "count");
    report.note("cpu_per_wall", s.cpu_per_wall, "ratio");
    report.note("steal_pct", s.steal_pct, "%");
    return report;
  }

  // Traced run: an untraced half, then a traced half over the same jobs.
  const Sample plain = runner.timed(options.seconds / 2, 1, nullptr, nullptr);
  SpanLog log(4096);
  LayerFigures f;
  set_alloc_counting(true);
  const AllocCounts before = alloc_counts();
  const Sample traced = runner.timed(options.seconds / 2, 1, &log, &f);
  const AllocCounts after = alloc_counts();
  set_alloc_counting(false);
  runner.probe_harden(traced, log, f);

  const double jobs = static_cast<double>(traced.jobs());
  f.hit_build_ms /= jobs;
  f.task_assignment_ms /= jobs;
  for (double& v : f.rank_intervals_ms) {
    v /= jobs;
  }
  finish_counts(f, traced.jobs());
  f.cpu_per_wall = plain.cpu_per_wall;
  finish_traced(report, options, log, f,
                {plain.latency_ms, plain.orders, plain.throughput(),
                 plain.steal_pct},
                {traced.latency_ms, traced.orders, traced.throughput(),
                 traced.steal_pct},
                {after.calls - before.calls, after.bytes - before.bytes});
  return report;
}

}  // namespace perfbench
