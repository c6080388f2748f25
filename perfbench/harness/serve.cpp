// The serve workloads, serve_cold and serve_warm: RankingService with two
// executors and a shared ResultCache, driven by one load-generator thread
// that keeps four jobs in flight (a closed loop). Each job is a simulated
// n = 100, r = 0.1 batch (495 tasks, 1485 votes).
//  * serve_cold: every job carries a fresh seed, so its content key is new;
//    the cache holds fewer entries than a run submits, so steady state
//    looks up, misses, inserts and evicts.
//  * serve_warm: set-up ranks a fixed set of batches; timed jobs replay
//    them, so every one must be a bitwise-equal cache hit.
#include <deque>
#include <memory>

#include "bench.hpp"

namespace perfbench {

namespace {

using namespace crowdrank;
using service::JobResult;
using service::PartialRanking;

constexpr std::size_t kExecutors = 2;
constexpr std::size_t kInFlight = 4;
constexpr std::size_t kCacheCapacity = 64;
constexpr std::size_t kSetupReps = 3;
/// RankingService keeps every ticket (job and result) until it is
/// destroyed, ~50 KB per job here, so a run serves its jobs in batches of
/// this many per service instance, as `crowdrank serve --jobs` does. The
/// retained batch stays visible in peak_rss_mb.
constexpr std::size_t kJobsPerService = 2048;
/// Rankings kept per phase for the traced-equals-untraced check.
constexpr std::size_t kKeptOrders = 256;

struct Shape {
  std::size_t n = 0;
  double ratio = 0.0;
  double accuracy_pin = 0.0;    ///< default seed, full size, exact
  double accuracy_floor = 0.0;  ///< any other seed
  /// serve_cold: accuracy averages timed jobs 0..scored_jobs-1.
  /// serve_warm: the size of the replayed batch set (all of it is scored).
  std::size_t scored_jobs = 1;
  /// Jobs replayed one at a time through the layers in the traced run.
  std::size_t replay_jobs = 1;
  /// Discarded warm-up jobs per set-up: about a second of work, since the
  /// first second of a loop runs ~30% slow on the reference host.
  std::size_t warmup_jobs = 1;
};

Shape shape_of(const Options& options) {
  const bool warm = options.workload == "serve_warm";
  if (options.toy) {
    return {30, 0.2, 0.0, 0.6, warm ? 8u : 16u, warm ? 8u : 4u, 8};
  }
  return {100, 0.1, warm ? 0.88229797979797953 : 0.87907575757575773, 0.8,
          warm ? 32u : 200u, warm ? 32u : 16u, warm ? 32768u : 256u};
}

struct Batch {
  std::uint64_t seed = 0;
  Ranking truth{std::vector<VertexId>{0}};
  VoteBatch votes;
};

struct InFlight {
  std::uint64_t id = 0;
  std::uint64_t index = 0;
  Clock::time_point submitted;
  Batch batch;  ///< serve_cold: the job's own batch (warm replays share)
};

struct Sample {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> accuracy;
  std::vector<std::vector<VertexId>> orders;  ///< the first kKeptOrders
  double wall_s = 0.0;
  double cpu_per_wall = 0.0;
  double steal_pct = 0.0;
  service::CacheStats cache;  ///< cache activity during the phase

  std::size_t jobs() const { return latency_ms.size(); }
  double throughput() const {
    return wall_s > 0.0 ? static_cast<double>(jobs()) / wall_s : 0.0;
  }
};

class Runner {
 public:
  Runner(const Options& options, Report& report)
      : options_(options),
        shape_(shape_of(options)),
        tasks_(task_count(shape_.n, shape_.ratio)),
        warm_(options.workload == "serve_warm"),
        report_(report) {}

  const Shape& shape() const { return shape_; }

  /// Starts a fresh cache and service, (serve_warm) ranks the replay set
  /// into the cache, and runs the discarded warm-up jobs.
  void set_up();

  /// Replaces the service with a fresh one on the same cache.
  void start_service();
  /// Replaces cache and service, so no earlier job's result is cached.
  void fresh_cache();
  std::uint64_t submit(service::RankingJob job);

  /// The closed loop: submits jobs 0, 1, ... of `stream`, keeping
  /// kInFlight in flight, until `seconds` have passed and at least
  /// `min_jobs` have finished.
  Sample closed_loop(std::uint64_t stream, double seconds,
                     std::size_t min_jobs, SpanLog* log);

  /// Traced run only: replays jobs one at a time on this thread through
  /// the layers a job of this workload crosses, timing each.
  void replay(const Sample& untraced, SpanLog& log, LayerFigures& f);

 private:
  Batch make_batch(std::uint64_t seed) const;
  Batch batch_for(std::uint64_t stream, std::uint64_t index) const;
  service::RankingJob job_of(const Batch& batch) const;
  void check(const JobResult& result, const InFlight& job,
             std::uint64_t stream, Sample& sample);

  const Options& options_;
  const Shape shape_;
  const std::size_t tasks_;
  const bool warm_;
  Report& report_;
  std::vector<Batch> replay_set_;         ///< serve_warm's fixed batches
  std::vector<JobResult> expected_;       ///< their set-up results
  std::unique_ptr<service::ResultCache> cache_;
  std::unique_ptr<service::RankingService> service_;
  std::size_t service_jobs_ = 0;  ///< jobs the current instance has taken
};

Batch Runner::make_batch(std::uint64_t seed) const {
  CrowdRound round = simulate_round(seed, shape_.n, tasks_);
  return {seed, std::move(round.truth), std::move(round.votes)};
}

Batch Runner::batch_for(std::uint64_t stream, std::uint64_t index) const {
  const AllocPause input;
  if (warm_) {
    return {};  // replays replay_set_[index % size]; nothing to build
  }
  return make_batch(derive_seed(options_.seed, stream, index));
}

service::RankingJob Runner::job_of(const Batch& batch) const {
  const AllocPause input;
  service::RankingJob job;
  job.votes = batch.votes;
  job.object_count = shape_.n;
  job.worker_count = kWorkerPool;
  job.seed = batch.seed;
  return job;
}

void Runner::start_service() {
  service_.reset();
  service::ServiceConfig config;
  config.worker_count = kExecutors;
  config.queue_capacity = kCacheCapacity;  // set-up queues the replay set
  config.cache = cache_.get();
  service_ = std::make_unique<service::RankingService>(config);
  service_jobs_ = 0;
}

std::uint64_t Runner::submit(service::RankingJob job) {
  ++service_jobs_;
  return service_->submit(std::move(job));
}

void Runner::fresh_cache() {
  service_.reset();  // it points at the cache
  cache_ = std::make_unique<service::ResultCache>(
      service::ResultCacheConfig{kCacheCapacity, "", nullptr});
  start_service();
}

void Runner::set_up() {
  fresh_cache();

  if (warm_) {
    replay_set_.clear();
    expected_.clear();
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < shape_.scored_jobs; ++i) {
      replay_set_.push_back(
          make_batch(derive_seed(options_.seed, kReplayStream, i)));
      ids.push_back(submit(job_of(replay_set_.back())));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      expected_.push_back(service_->wait(ids[i]));
      ++report_.attempted;
      const JobResult& r = expected_.back();
      const std::string error = result_error(r, r.ranking, shape_.n);
      if (!error.empty()) {
        report_.fail("replay batch " + std::to_string(i) + ": " + error);
      }
    }
  }
  closed_loop(kWarmupStream, 0.0, shape_.warmup_jobs, nullptr);
}

void Runner::check(const JobResult& r, const InFlight& job,
                   std::uint64_t stream, Sample& sample) {
  ++report_.attempted;
  const std::string name = "job " + std::to_string(job.index) +
                           " (stream " + std::to_string(stream) + ")";
  const bool timed = stream == kTimedStream;
  const Batch& batch =
      warm_ ? replay_set_[job.index % replay_set_.size()] : job.batch;

  PartialRanking ranking = r.ranking;
  if (options_.inject == "wrong_ranking" && timed && job.index == 0 &&
      ranking.order.size() > 1) {
    ranking.order[1] = ranking.order[0];
  }
  const std::string error = result_error(r, ranking, shape_.n);
  if (!error.empty()) {
    report_.fail(name + ": " + error);
  } else if (warm_) {
    const JobResult& want = expected_[job.index % expected_.size()];
    if (!r.served_from_cache) {
      report_.fail(name + ": replayed batch missed the cache");
    } else if (ranking != want.ranking ||
               r.log_probability != want.log_probability ||
               r.artifact_key != want.artifact_key) {
      report_.fail(name + ": cache hit differs from its set-up result");
    }
  } else if (r.served_from_cache) {
    report_.fail(name + ": fresh batch was served from the cache");
  }
  if (timed && sample.accuracy.size() < shape_.scored_jobs) {
    sample.accuracy.push_back(
        error.empty() ? accuracy_of(batch.truth, ranking) : 0.0);
  }
  if (sample.orders.size() < kKeptOrders) {
    sample.orders.push_back(ranking.order);
  }
}

Sample Runner::closed_loop(std::uint64_t stream, double seconds,
                           std::size_t min_jobs, SpanLog* log) {
  Sample sample;
  std::deque<InFlight> in_flight;
  std::uint64_t next = 0;
  Batch pending = batch_for(stream, next);
  bool submitting = true;
  const service::CacheStats cache_before = cache_->stats();
  // Jobs the service instances this loop retired had settled.
  std::size_t settled_before = 0;
  const auto settled = [&] {
    const service::ServiceStats stats = service_->stats();
    return stats.completed + stats.degraded;
  };
  const std::size_t settled_at_start = settled();
  const Phase phase;
  Clock::time_point last_done = phase.start;

  while (true) {
    if (submitting && service_jobs_ >= kJobsPerService && in_flight.empty()) {
      settled_before += settled();
      start_service();
    }
    while (submitting && service_jobs_ < kJobsPerService &&
           in_flight.size() < kInFlight) {
      service::RankingJob job =
          warm_ ? job_of(replay_set_[next % replay_set_.size()])
                : job_of(pending);
      if (options_.inject == "cache_miss" && warm_ &&
          stream == kTimedStream && next == 0) {
        job.seed ^= 1;  // different content key: this replay cannot hit
      }
      const auto submitted = Clock::now();
      const std::uint64_t id = submit(std::move(job));
      const AllocPause bookkeeping;
      in_flight.push_back({id, next, submitted, std::move(pending)});
      ++next;
      // Build the next batch while the executors work.
      pending = batch_for(stream, next);
      submitting = sample.jobs() + in_flight.size() < min_jobs ||
                   phase.elapsed_s() < seconds;
    }
    if (in_flight.empty()) {
      break;
    }
    const JobResult r = service_->wait(in_flight.front().id);
    const auto done = Clock::now();
    const AllocPause bookkeeping;
    const InFlight& job = in_flight.front();
    sample.latency_ms.push_back(ms_between(job.submitted, done));
    sample.queue_ms.push_back(r.queue_ms);
    sample.run_ms.push_back(r.run_ms);
    check(r, job, stream, sample);
    if (log != nullptr) {
      const auto ms = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(v));
      };
      const int span = log->add("job", SpanLog::kNoParent, job.index,
                                job.submitted, done);
      const auto queued = std::min(job.submitted + ms(r.queue_ms), done);
      log->add("service.queue", span, job.index, job.submitted, queued);
      log->add("service.run", span, job.index, queued,
               std::min(queued + ms(r.run_ms), done));
    }
    last_done = done;
    in_flight.pop_front();
    submitting = submitting && (sample.jobs() + in_flight.size() < min_jobs ||
                                phase.elapsed_s() < seconds);
  }

  sample.wall_s = ms_between(phase.start, last_done) / 1e3;
  sample.cpu_per_wall = (cpu_ms() - phase.cpu_start) / (sample.wall_s * 1e3);
  sample.steal_pct = steal_pct(phase.ticks, cpu_ticks());
  if (settled_before + settled() - settled_at_start != sample.jobs()) {
    report_.fail("service stats disagree with the jobs the loop settled");
  }
  const service::CacheStats after = cache_->stats();
  sample.cache.hits = after.hits - cache_before.hits;
  sample.cache.misses = after.misses - cache_before.misses;
  sample.cache.evictions = after.evictions - cache_before.evictions;
  return sample;
}

void Runner::replay(const Sample& untraced, SpanLog& log, LayerFigures& f) {
  // serve_cold's replay misses a cache of its own, as its jobs do; the
  // warm replay reads the service's cache, which set-up filled.
  service::ResultCache cold_cache({kCacheCapacity, "", nullptr});
  service::ResultCache& cache = warm_ ? *cache_ : cold_cache;
  const service::HardeningPolicy policy;
  const InferenceConfig inference;
  const std::size_t jobs = shape_.replay_jobs;

  for (std::size_t i = 0; i < jobs; ++i) {
    const Batch batch = warm_ ? replay_set_[i] : batch_for(kTimedStream, i);
    const std::string name = "replay " + std::to_string(i);
    ++report_.attempted;
    const auto start = Clock::now();
    const service::CacheKey key =
        service::compute_cache_key(batch.votes, shape_.n, kWorkerPool,
                                   batch.seed, inference, true, &policy);
    const auto keyed = Clock::now();
    const std::optional<service::CachedResult> hit = cache.lookup(key);
    const auto looked_up = Clock::now();
    const int root = log.reserve_id();
    log.add("service.cache_key", root, i, start, keyed);
    log.add("service.cache_lookup", root, i, keyed, looked_up);
    f.cache_key_us += ms_between(start, keyed) * 1e3;
    f.cache_lookup_us += ms_between(keyed, looked_up) * 1e3;

    if (warm_) {
      log.set(root, "replay", SpanLog::kNoParent, i, start, looked_up);
      if (!hit || hit->ranking != expected_[i].ranking ||
          key.hex() != expected_[i].artifact_key) {
        report_.fail(name + ": lookup did not return the set-up result");
      }
      continue;
    }
    if (hit) {
      report_.fail(name + ": fresh batch found in an empty cache");
    }
    const auto harden_start = Clock::now();
    const service::HardenedBatch hardened =
        service::harden_votes(batch.votes, shape_.n, policy);
    const auto hardened_at = Clock::now();
    log.add("service.harden", root, i, harden_start, hardened_at);
    f.harden_ms += ms_between(harden_start, hardened_at);
    if (!hardened.usable()) {
      report_.fail(name + ": hardening left no usable batch");
    }

    api::Request request;
    request.votes = batch.votes;
    request.object_count = shape_.n;
    request.worker_count = kWorkerPool;
    request.seed = batch.seed;
    StageStamps stamps;
    request.inference.control = &stamps;
    const auto enter = Clock::now();
    const api::Response response = api::rank(request);
    const auto leave = Clock::now();
    const int rank = log.add("rank", root, i, enter, leave);
    if (!response.ok() || !stamps.complete()) {
      report_.fail(name + ": rank failed or skipped a stage checkpoint");
    } else {
      const std::vector<double> intervals =
          stamps.record(log, rank, i, enter, leave);
      for (std::size_t k = 0; k < intervals.size(); ++k) {
        f.rank_intervals_ms[k] += intervals[k];
      }
      add_engine_counts(f, *response.inference,
                        request.inference.propagation.spectral_horizon,
                        request.inference.propagation.max_length);
    }
    if (i < untraced.orders.size() &&
        response.ranking.order != untraced.orders[i]) {
      report_.fail(name + ": ranking differs from the service's");
    }

    service::CachedResult stored;
    stored.outcome = response.outcome;
    stored.stage = response.stage;
    stored.ranking = response.ranking;
    stored.hardening = response.hardening;
    stored.log_probability = response.log_probability;
    const auto insert_start = Clock::now();
    cache.insert(key, stored);
    const auto inserted = Clock::now();
    log.add("service.cache_insert", root, i, insert_start, inserted);
    f.cache_insert_us += ms_between(insert_start, inserted) * 1e3;
    log.set(root, "replay", SpanLog::kNoParent, i, start, inserted);
  }

  const double k = static_cast<double>(jobs);
  f.cache_key_us /= k;
  f.cache_lookup_us /= k;
  f.cache_insert_us /= k;
  f.harden_ms /= k;
  for (double& v : f.rank_intervals_ms) {
    v /= k;
  }
  finish_counts(f, warm_ ? 0 : jobs);
}

}  // namespace

Report run_serve(const Options& options) {
  Report report;
  Runner runner(options, report);
  const Shape& shape = runner.shape();
  set_thread_count(1);  // executors run kernels inline; no kernel pool
  record_environment(report, 1, kExecutors, kInFlight);

  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    const auto start = rep == 0 ? options.started : Clock::now();
    runner.set_up();
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  if (!options.trace) {
    const Sample s =
        runner.closed_loop(kTimedStream, options.seconds, shape.scored_jobs,
                           nullptr);
    EndToEnd e;
    e.setup_s = quantile(setup_s, 0.5);
    e.latency_ms_p50 = quantile(s.latency_ms, 0.5);
    e.throughput_jobs_s = s.throughput();
    e.accuracy = mean(s.accuracy);
    e.peak_rss_mb = peak_rss_mb();
    emit(report, e);

    check_accuracy(report, options, e.accuracy, shape.accuracy_pin,
                   shape.accuracy_floor);
    // Ten samples beyond the p90 need 100 jobs; every full run has more.
    report.note("latency_ms_p90", quantile(s.latency_ms, 0.9), "ms");
    report.note("queue_ms_p50", quantile(s.queue_ms, 0.5), "ms");
    report.note("run_ms_p50", quantile(s.run_ms, 0.5), "ms");
    report.note("jobs", static_cast<double>(s.jobs()), "count");
    report.note("cache_hits", static_cast<double>(s.cache.hits), "count");
    report.note("cache_misses", static_cast<double>(s.cache.misses), "count");
    report.note("cache_evictions", static_cast<double>(s.cache.evictions),
                "count");
    report.note("cpu_per_wall", s.cpu_per_wall, "ratio");
    report.note("steal_pct", s.steal_pct, "%");
    return report;
  }

  // Traced run: an untraced half, a traced half over the same job seeds,
  // then the replay. serve_cold's traced half starts on an empty cache, or
  // its jobs would hit the untraced half's entries.
  const Sample plain = runner.closed_loop(kTimedStream, options.seconds / 2,
                                          shape.replay_jobs, nullptr);
  if (options.workload == "serve_cold") {
    runner.fresh_cache();
  }
  SpanLog log(1 << 16);
  LayerFigures f;
  set_alloc_counting(true);
  const AllocCounts before = alloc_counts();
  const Sample traced =
      runner.closed_loop(kTimedStream, options.seconds / 2, 1, &log);
  const AllocCounts after = alloc_counts();
  set_alloc_counting(false);
  runner.replay(plain, log, f);

  const double jobs = static_cast<double>(traced.jobs());
  f.queue_ms = mean(traced.queue_ms);
  f.run_ms = mean(traced.run_ms);
  f.cache_evictions_per_job = static_cast<double>(traced.cache.evictions) / jobs;
  const auto lookups = traced.cache.hits + traced.cache.misses;
  f.cache_hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(traced.cache.hits) /
                         static_cast<double>(lookups);
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
