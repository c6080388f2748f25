// Throughput/latency bench for the batch ranking service: runs the same
// n-job stream at increasing executor counts and writes
// BENCH_service.json (shared trace::RunReport format) with jobs/sec and
// p50/p99 job latency per worker count, plus a telemetry-overhead row
// that pins the cost of the observability plane.
//
// Job-level parallelism is the scaling story: each executor runs the
// pipeline's kernels inline (util/parallel InlineRegion), so adding
// executors multiplies concurrent jobs instead of contending for one
// kernel-level pool. The report records hardware_concurrency — on a
// single-core host every worker count serializes onto one core and the
// ratios stay flat; read the numbers in that light rather than expecting
// the k-core scaling a wider machine shows.
//
// Percentiles come from metrics::Histogram::Snapshot::quantile — the same
// bucket-interpolation formula the telemetry snapshot exporter and
// `crowdrank top` use — so the bench, the JSONL feed, and the live view
// all report latency identically.
//
// Set CROWDRANK_BENCH_SMOKE=1 for the CI canary scale (fewer jobs,
// fewer worker counts); the smoke report is ratcheted against
// bench/baselines/BENCH_service_smoke.json by tools/check_bench.py,
// which asserts the `telemetry_overhead_ok` boolean: the telemetry-on
// stream must stay within 3% (plus an additive noise floor) of the
// telemetry-off stream.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "crowdrank.hpp"

namespace {

using namespace crowdrank;

bool smoke_mode() {
  const char* env = std::getenv("CROWDRANK_BENCH_SMOKE");
  return env != nullptr && std::string(env) == "1";
}

/// One simulated vote batch reused by every job (jobs differ by seed).
VoteBatch make_batch(std::size_t n, std::size_t workers, Rng& rng) {
  VoteBatch votes;
  for (WorkerId w = 0; w < workers; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        // Mostly-consistent crowd: lower id preferred 85% of the time.
        votes.push_back(Vote{w, i, j, rng.bernoulli(0.85)});
      }
    }
  }
  return votes;
}

struct SweepPoint {
  std::size_t workers;
  double wall_ms;
  double jobs_per_sec;
  double p50_ms;
  double p99_ms;
  std::size_t completed;
};

SweepPoint run_sweep(std::size_t workers, const VoteBatch& votes,
                     std::size_t object_count, std::size_t job_count,
                     obs::Telemetry* telemetry = nullptr) {
  service::ServiceConfig config;
  config.worker_count = workers;
  config.queue_capacity = job_count;
  config.telemetry = telemetry;
  service::RankingService svc(config);

  const Stopwatch wall;
  for (std::size_t k = 0; k < job_count; ++k) {
    service::RankingJob job;
    job.votes = votes;
    job.object_count = object_count;
    job.seed = k + 1;
    svc.submit(std::move(job));
  }
  const std::vector<service::JobResult> results = svc.drain();
  const double wall_ms = wall.elapsed_millis();

  SweepPoint point{};
  point.workers = workers;
  point.wall_ms = wall_ms;
  point.jobs_per_sec = 1e3 * static_cast<double>(job_count) / wall_ms;
  metrics::Histogram latency;
  for (const service::JobResult& r : results) {
    latency.observe(r.queue_ms + r.run_ms);
    if (r.outcome == service::JobOutcome::Completed) {
      ++point.completed;
    }
  }
  const metrics::Histogram::Snapshot snap = latency.snapshot();
  point.p50_ms = snap.quantile(0.50);
  point.p99_ms = snap.quantile(0.99);
  return point;
}

/// Telemetry-overhead probe: the same single-worker stream with the full
/// observability plane on (flight recorder + snapshot exporter at a
/// service-realistic period) vs off, best-of-`reps` each to shave
/// scheduler noise. The additive floor keeps the 3% band meaningful on
/// short smoke streams where two back-to-back runs jitter by more than
/// the budget.
struct OverheadPoint {
  double wall_off_ms = 0.0;
  double wall_on_ms = 0.0;
  double overhead_pct = 0.0;
  bool ok = false;
};

OverheadPoint measure_overhead(const VoteBatch& votes,
                               std::size_t object_count,
                               std::size_t job_count, int reps) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "crowdrank_bench_telemetry";
  fs::remove_all(dir);

  OverheadPoint point;
  for (int rep = 0; rep < reps; ++rep) {
    const SweepPoint off =
        run_sweep(/*workers=*/1, votes, object_count, job_count);
    if (rep == 0 || off.wall_ms < point.wall_off_ms) {
      point.wall_off_ms = off.wall_ms;
    }

    obs::TelemetryConfig config;
    config.directory = (dir / ("rep_" + std::to_string(rep))).string();
    config.period = std::chrono::milliseconds(50);
    obs::Telemetry telemetry(std::move(config), /*executor_count=*/1);
    const SweepPoint on =
        run_sweep(/*workers=*/1, votes, object_count, job_count, &telemetry);
    if (rep == 0 || on.wall_ms < point.wall_on_ms) {
      point.wall_on_ms = on.wall_ms;
    }
  }
  fs::remove_all(dir);

  point.overhead_pct =
      100.0 * (point.wall_on_ms - point.wall_off_ms) / point.wall_off_ms;
  // The gate: <3% relative, with an additive floor for short streams.
  point.ok = point.wall_on_ms <= point.wall_off_ms * 1.03 + 50.0;
  return point;
}

/// Warm-vs-cold probe: the same single-worker job stream served twice
/// against one ResultCache. The cold pass computes and stores every
/// result; the warm pass must settle each job from the cache without
/// entering the pipeline. `cache_correct` pins that every warm result is
/// a cache hit bitwise-identical to its cold counterpart — the ratchet
/// (tools/check_bench.py) asserts it, so a silently-broken cache fails
/// CI even if it happens to be fast.
struct WarmPoint {
  double wall_cold_ms = 0.0;
  double wall_warm_ms = 0.0;
  double warm_speedup = 0.0;
  double cache_hit_us = 0.0;  ///< mean per-job settle time when warm
  bool cache_correct = false;
};

WarmPoint measure_warm(const VoteBatch& votes, std::size_t object_count,
                       std::size_t job_count) {
  // Distinct seeds give every job its own content key; capacity above
  // job_count keeps the cold pass resident for the warm pass.
  service::ResultCacheConfig cache_config;
  cache_config.capacity = job_count + 1;
  service::ResultCache cache(cache_config);

  const auto run_pass = [&] {
    service::ServiceConfig config;
    config.worker_count = 1;
    config.queue_capacity = job_count;
    config.cache = &cache;
    service::RankingService svc(config);
    const Stopwatch wall;
    for (std::size_t k = 0; k < job_count; ++k) {
      service::RankingJob job;
      job.votes = votes;
      job.object_count = object_count;
      job.seed = k + 1;
      svc.submit(std::move(job));
    }
    std::vector<service::JobResult> results = svc.drain();
    return std::make_pair(wall.elapsed_millis(), std::move(results));
  };

  const auto [cold_ms, cold] = run_pass();
  const auto [warm_ms, warm] = run_pass();

  WarmPoint point;
  point.wall_cold_ms = cold_ms;
  point.wall_warm_ms = warm_ms;
  point.warm_speedup = cold_ms / warm_ms;
  point.cache_hit_us =
      1e3 * warm_ms / static_cast<double>(job_count);
  bool correct = cold.size() == warm.size();
  for (std::size_t k = 0; correct && k < cold.size(); ++k) {
    correct = warm[k].served_from_cache &&
              warm[k].outcome == cold[k].outcome &&
              warm[k].ranking == cold[k].ranking &&
              warm[k].hardening == cold[k].hardening &&
              warm[k].log_probability == cold[k].log_probability &&
              warm[k].artifact_key == cold[k].artifact_key;
  }
  point.cache_correct = correct;
  return point;
}

}  // namespace

int main() {
  const bool smoke = smoke_mode();
  const std::size_t n = bench::full_scale() ? 40 : (smoke ? 16 : 24);
  const std::size_t crowd = 8;
  const std::size_t job_count = smoke ? 40 : 100;
  const unsigned cores = std::thread::hardware_concurrency();

  bench::banner("service throughput",
                "batch ranking service: jobs/sec and p50/p99 latency of a " +
                    std::to_string(job_count) +
                    "-job stream vs executor count, plus the telemetry "
                    "plane's overhead");
  std::cout << "hardware_concurrency: " << cores
            << " (worker counts beyond the core count serialize; scaling "
               "ratios are only meaningful up to it)\n\n";

  Rng rng(2024);
  const VoteBatch votes = make_batch(n, crowd, rng);

  trace::RunReport report("service_throughput");
  report.note("jobs", static_cast<std::int64_t>(job_count));
  report.note("objects", static_cast<std::int64_t>(n));
  report.note("votes_per_job", static_cast<std::int64_t>(votes.size()));
  report.note("hardware_concurrency", static_cast<std::int64_t>(cores));

  TableWriter table({"service_workers", "wall_ms", "jobs_per_sec",
                     "p50_ms", "p99_ms", "completed"});
  const std::vector<std::size_t> worker_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  double single_worker_rate = 0.0;
  for (const std::size_t workers : worker_counts) {
    const SweepPoint point = run_sweep(workers, votes, n, job_count);
    if (workers == 1) {
      single_worker_rate = point.jobs_per_sec;
    }
    table.add_row({std::to_string(point.workers),
                   TableWriter::fmt(point.wall_ms, 1),
                   TableWriter::fmt(point.jobs_per_sec, 1),
                   TableWriter::fmt(point.p50_ms, 2),
                   TableWriter::fmt(point.p99_ms, 2),
                   std::to_string(point.completed)});

    trace::RunReport::Run& run =
        report.add_run("workers_" + std::to_string(point.workers));
    run.note("service_workers", static_cast<std::int64_t>(point.workers));
    run.note("wall_ms", point.wall_ms);
    run.note("jobs_per_sec", point.jobs_per_sec);
    run.note("p50_ms", point.p50_ms);
    run.note("p99_ms", point.p99_ms);
    run.note("completed", static_cast<std::int64_t>(point.completed));
    run.note("speedup_vs_single", point.jobs_per_sec / single_worker_rate);
  }
  bench::emit(table);

  const OverheadPoint overhead =
      measure_overhead(votes, n, job_count, /*reps=*/smoke ? 2 : 3);
  std::cout << "\ntelemetry overhead (1 worker, best of "
            << (smoke ? 2 : 3) << "): off "
            << TableWriter::fmt(overhead.wall_off_ms, 1) << " ms, on "
            << TableWriter::fmt(overhead.wall_on_ms, 1) << " ms ("
            << TableWriter::fmt(overhead.overhead_pct, 2) << "%), "
            << (overhead.ok ? "within" : "EXCEEDS") << " the 3% budget\n";

  trace::RunReport::Run& run = report.add_run("telemetry_overhead");
  run.note("wall_off_ms", overhead.wall_off_ms);
  run.note("wall_on_ms", overhead.wall_on_ms);
  run.note("overhead_pct", overhead.overhead_pct);
  run.note("telemetry_overhead_ok", overhead.ok);

  const WarmPoint warm = measure_warm(votes, n, job_count);
  std::cout << "warm serving (result cache, 1 worker): cold "
            << TableWriter::fmt(warm.wall_cold_ms, 1) << " ms, warm "
            << TableWriter::fmt(warm.wall_warm_ms, 1) << " ms ("
            << TableWriter::fmt(warm.warm_speedup, 1) << "x, "
            << TableWriter::fmt(warm.cache_hit_us, 1)
            << " us/hit), results "
            << (warm.cache_correct ? "bitwise-identical"
                                   : "DIVERGED FROM COLD RUN")
            << "\n";

  trace::RunReport::Run& warm_run = report.add_run("warm_cache");
  warm_run.note("wall_cold_ms", warm.wall_cold_ms);
  warm_run.note("wall_warm_ms", warm.wall_warm_ms);
  warm_run.note("warm_speedup", warm.warm_speedup);
  warm_run.note("cache_hit_us", warm.cache_hit_us);
  warm_run.note("cache_correct", warm.cache_correct);

  if (!report.write_file("BENCH_service.json")) {
    std::cerr << "ERROR: cannot write BENCH_service.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_service.json\n";
  return (overhead.ok && warm.cache_correct) ? 0 : 1;
}
