// The perf checks the end-to-end benchmark (perfbench/, BENCHMARK.json)
// cannot make. Writes BENCH_pipeline.json (the shared trace::RunReport
// format, stamped with build info), which tools/check_bench.py ratchets
// against bench/baselines/BENCH_pipeline_smoke.json. Four rows:
//
//  * kernel_saps_simd_n100: step 4's log-cost fill (SapsCostCache), which
//    every rank job runs, timed over a copy of one closure (an 80 KB copy
//    per call) with the simd dispatch forced to each backend. The fills
//    must be bitwise-identical, and the row's speedup_floor of 1.5 holds
//    the AVX2 win. Skipped on hosts without AVX2, where a scalar-vs-scalar
//    ratio would gate on noise.
//  * large_n3000: run_experiment at n = 3000 on a degree-16 budget with
//    the auto horizon, three times the n of perfbench's paper_n1000. The
//    bench fails if step 3 falls back from the Perron limit there; the
//    ratchet holds its wall times and accuracy.
//  * telemetry_overhead: one service stream with the telemetry plane
//    (flight recorder and snapshot exporter) on and off. The bench fails
//    if the telemetry-on stream exceeds the 3% budget.
//  * pool_overlap: 50 regions of the kernel pool at two lanes, each of two
//    1-ms chunks. Lanes that run side by side finish a region in ~1 ms,
//    and lanes queued on one CPU in ~2 ms. The bench fails if the median
//    region reaches 1.5 ms where the process may run on two CPUs or more,
//    and reports the row as skipped elsewhere.
//
// The timed runs execute with no trace sink attached and take their step
// times from the engine's stage checkpoints (bench::StepClock). Set
// CROWDRANK_TRACE=out.json to add an untimed traced rerun of large_n3000;
// the bench fails if that run records no `infer` span.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench/common.hpp"
#include "core/saps_kernel.hpp"
#include "util/build_info.hpp"
#include "util/simd.hpp"

namespace crowdrank {
namespace {

Matrix random_closure(std::size_t n, Rng& rng) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = rng.uniform(0.05, 0.95);
      m(i, j) = w;
      m(j, i) = 1.0 - w;
    }
  }
  return m;
}

/// Paired timer for a floor-gated A/B kernel row: returns the minimum
/// single-call milliseconds of each side, sampled in alternating rounds
/// (3 per side, each round ~8 ms of timed calls, sized from one untimed
/// calibration call and capped at 100 samples per round). Two things make
/// this gate-worthy where plain best-of-N is not: the minimum over dozens
/// of samples strips scheduler preemptions that put a 20%+ jitter band on
/// a best-of-3 of a 0.2 ms call, and the A/B/A/B round order lands slow
/// host-frequency drift on both sides of the ratio instead of whichever
/// side ran second. `setup_a`/`setup_b` flip whatever state selects a side
/// and run once per round, outside the timed samples.
template <typename SetupA, typename FnA, typename SetupB, typename FnB>
std::pair<double, double> best_ms_pair(SetupA&& setup_a, FnA&& fn_a,
                                       SetupB&& setup_b, FnB&& fn_b) {
  constexpr int kRounds = 3;
  constexpr double kRoundMs = 8.0;
  const auto calibrate = [](auto&& setup, auto&& fn) {
    setup();
    Stopwatch watch;
    fn();
    const double once_ms = watch.elapsed_millis();
    const double want = kRoundMs / (once_ms > 0.01 ? once_ms : 0.01);
    return want > 100.0 ? 100 : static_cast<int>(want) + 1;
  };
  const int samples_a = calibrate(setup_a, fn_a);
  const int samples_b = calibrate(setup_b, fn_b);
  double best_a = 0.0;
  double best_b = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    setup_a();
    for (int r = 0; r < samples_a; ++r) {
      Stopwatch watch;
      fn_a();
      const double ms = watch.elapsed_millis();
      if ((round == 0 && r == 0) || ms < best_a) best_a = ms;
    }
    setup_b();
    for (int r = 0; r < samples_b; ++r) {
      Stopwatch watch;
      fn_b();
      const double ms = watch.elapsed_millis();
      if ((round == 0 && r == 0) || ms < best_b) best_b = ms;
    }
  }
  return {best_a, best_b};
}

/// The kernel_saps_simd_n100 row. Returns false when the fills differ.
bool run_saps_simd(trace::RunReport& report) {
  if (!simd::avx2_supported()) {
    std::cout << "\n-- simd saps fill: skipped (no AVX2 on this host) --\n";
    report.note("simd_rows", false);
    return true;
  }
  report.note("simd_rows", true);
  constexpr std::size_t n = 100;
  Rng rng(1000 + n);
  const Matrix a = random_closure(n, rng);
  const auto [scalar_ms, avx2_ms] = best_ms_pair(
      [] { simd::set_backend(simd::Backend::Scalar); },
      [&] { SapsCostCache cache(a); },
      [] { simd::set_backend(simd::Backend::Avx2); },
      [&] { SapsCostCache cache(a); });
  simd::set_backend(simd::Backend::Scalar);
  const SapsCostCache reference(a);
  simd::set_backend(simd::Backend::Avx2);
  const SapsCostCache vectorized(a);
  simd::reset_backend();
  const bool identical =
      std::equal(reference.data().begin(), reference.data().end(),
                 vectorized.data().begin(), vectorized.data().end(),
                 [](double x, double y) {
                   return std::memcmp(&x, &y, sizeof(double)) == 0;
                 });
  const double speedup = avx2_ms > 0.0 ? scalar_ms / avx2_ms : 1.0;

  TableWriter table({"n", "kernel", "scalar_ms", "avx2_ms", "speedup"});
  table.add_row({std::to_string(n), "saps", TableWriter::fmt(scalar_ms),
                 TableWriter::fmt(avx2_ms), TableWriter::fmt(speedup)});
  std::cout << "\n-- simd saps fill (scalar vs avx2, bitwise-asserted) --\n";
  bench::emit(table);

  trace::RunReport::Run& run = report.add_run("kernel_saps_simd_n100");
  run.note("n", static_cast<std::int64_t>(n));
  run.note("scalar_ms", scalar_ms);
  run.note("avx2_ms", avx2_ms);
  run.note("speedup", speedup);
  run.note("speedup_floor", 1.5);
  run.note("identical", identical);
  if (!identical) {
    std::cerr << "ERROR: scalar and avx2 saps fills diverge at n=" << n
              << "\n";
  }
  return identical;
}

/// The large_n3000 experiment: degree-16 budget (l = 8n tasks), auto
/// horizon.
ExperimentConfig large_n_config(bench::StepClock* clock) {
  constexpr std::size_t n = 3000;
  ExperimentConfig config;
  config.object_count = n;
  config.selection_ratio = 16.0 / static_cast<double>(n - 1);
  config.worker_pool_size = 30;
  config.workers_per_task = 3;
  config.worker_quality = {QualityDistribution::Gaussian,
                           QualityLevel::Medium};
  config.seed = 42 + n;
  config.inference.control = clock;
  return config;
}

/// The large_n3000 row. Returns false when step 3 fell back from the
/// Perron limit.
bool run_large_n(trace::RunReport& report) {
  bench::StepClock steps;
  const ExperimentConfig config = large_n_config(&steps);
  const Stopwatch watch;
  const ExperimentResult r = run_experiment(config);
  const double experiment_ms = watch.elapsed_millis();
  const PropagationStats& step3 = r.inference.step3;

  TableWriter table({"n", "experiment_ms", "step3_ms", "perron_iterations",
                     "accuracy"});
  table.add_row({std::to_string(config.object_count),
                 TableWriter::fmt(experiment_ms),
                 TableWriter::fmt(steps.step_ms(2)),
                 std::to_string(step3.perron_iterations),
                 TableWriter::fmt(r.accuracy)});
  std::cout << "\n-- large n (degree-16 budget, auto horizon) --\n";
  bench::emit(table);

  trace::RunReport::Run& run = report.add_run("large_n3000");
  run.note("n", static_cast<std::int64_t>(config.object_count));
  run.note("threads", static_cast<std::int64_t>(thread_count()));
  run.note("experiment_ms", experiment_ms);
  run.note("inference_ms", steps.total_ms());
  run.note("perron_iterations",
           static_cast<std::int64_t>(step3.perron_iterations));
  run.note("accuracy", r.accuracy);
  for (std::size_t k = 0; k < bench::StepClock::kSteps; ++k) {
    run.phase(bench::StepClock::kStepNames[k], steps.step_ms(k));
  }
  if (step3.perron_fallback) {
    std::cerr << "ERROR: step 3 fell back from the Perron limit at n="
              << config.object_count << "\n";
  }
  return !step3.perron_fallback;
}

/// One simulated vote batch reused by every job (jobs differ by seed):
/// every pair judged by every worker, the lower id preferred 85% of the
/// time.
VoteBatch make_batch(std::size_t n, std::size_t workers, Rng& rng) {
  VoteBatch votes;
  for (WorkerId w = 0; w < workers; ++w) {
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        votes.push_back(Vote{w, i, j, rng.bernoulli(0.85)});
      }
    }
  }
  return votes;
}

/// Wall milliseconds of a `job_count`-job stream through a one-executor
/// service, with `telemetry` attached when it is not null.
double serve_ms(const VoteBatch& votes, std::size_t object_count,
                std::size_t job_count, obs::Telemetry* telemetry) {
  service::ServiceConfig config;
  config.worker_count = 1;
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
  svc.drain();
  return wall.elapsed_millis();
}

/// The telemetry_overhead row: the same 40-job stream with the full
/// observability plane on (flight recorder plus snapshot exporter at a
/// service-realistic period) and off, best of two each to shave scheduler
/// noise. The additive floor keeps the 3% band meaningful on a stream
/// short enough that two back-to-back runs jitter by more than the budget.
/// Returns false when the telemetry-on stream exceeds it.
bool run_telemetry_overhead(trace::RunReport& report) {
  namespace fs = std::filesystem;
  constexpr std::size_t n = 16;
  constexpr std::size_t job_count = 40;
  constexpr int kReps = 2;
  Rng rng(2024);
  const VoteBatch votes = make_batch(n, 8, rng);
  const fs::path dir =
      fs::temp_directory_path() / "crowdrank_bench_telemetry";
  fs::remove_all(dir);
  double off_ms = 0.0;
  double on_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double off = serve_ms(votes, n, job_count, nullptr);
    off_ms = rep == 0 ? off : std::min(off_ms, off);
    obs::TelemetryConfig config;
    config.directory = (dir / ("rep_" + std::to_string(rep))).string();
    config.period = std::chrono::milliseconds(50);
    obs::Telemetry telemetry(std::move(config), /*executor_count=*/1);
    const double on = serve_ms(votes, n, job_count, &telemetry);
    on_ms = rep == 0 ? on : std::min(on_ms, on);
  }
  fs::remove_all(dir);
  const double overhead_pct = 100.0 * (on_ms - off_ms) / off_ms;
  const bool ok = on_ms <= off_ms * 1.03 + 50.0;
  std::cout << "\ntelemetry overhead (" << job_count
            << " jobs, 1 executor, best of " << kReps << "): off "
            << TableWriter::fmt(off_ms, 1) << " ms, on "
            << TableWriter::fmt(on_ms, 1) << " ms ("
            << TableWriter::fmt(overhead_pct, 2) << "%), "
            << (ok ? "within" : "EXCEEDS") << " the 3% budget\n";

  trace::RunReport::Run& run = report.add_run("telemetry_overhead");
  run.note("wall_off_ms", off_ms);
  run.note("wall_on_ms", on_ms);
  run.note("overhead_pct", overhead_pct);
  run.note("telemetry_overhead_ok", ok);
  if (!ok) {
    std::cerr << "ERROR: telemetry overhead exceeds the 3% budget\n";
  }
  return ok;
}

/// CPUs this process may run on.
std::size_t allowed_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max(std::thread::hardware_concurrency(), 1u);
}

/// The pool_overlap row. Returns false when the median region reaches
/// 1.5 ms on a host with two allowed CPUs or more.
bool run_pool_overlap(trace::RunReport& report) {
  constexpr std::size_t kRegions = 50;
  constexpr double kLimitMs = 1.5;
  const std::size_t width = thread_count();
  set_thread_count(2);
  std::vector<double> region_ms;
  for (std::size_t r = 0; r < kRegions; ++r) {
    const Stopwatch watch;
    parallel_for(0, 2, 1, [](std::size_t, std::size_t) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(1);
      while (std::chrono::steady_clock::now() < until) {
      }
    });
    region_ms.push_back(watch.elapsed_millis());
  }
  set_thread_count(width);
  std::nth_element(region_ms.begin(), region_ms.begin() + kRegions / 2,
                   region_ms.end());
  const double median_ms = region_ms[kRegions / 2];
  const std::size_t cpus = allowed_cpus();
  const bool skipped = cpus < 2;
  const bool ok = skipped || median_ms < kLimitMs;
  std::cout << "\npool overlap (2 lanes, " << kRegions
            << " regions of two 1-ms chunks, " << cpus
            << " allowed CPUs): median region "
            << TableWriter::fmt(median_ms, 3) << " ms, "
            << (skipped ? "skipped (one CPU)"
                        : ok ? "under the 1.5 ms limit"
                             : "NOT under the 1.5 ms limit")
            << "\n";

  trace::RunReport::Run& run = report.add_run("pool_overlap");
  run.note("allowed_cpus", static_cast<std::int64_t>(cpus));
  run.note("median_region_ms", median_ms);
  run.note("skipped", skipped);
  run.note("pool_overlap_ok", ok);
  if (!ok) {
    std::cerr << "ERROR: two pool lanes did not run side by side (median "
                 "region "
              << median_ms << " ms)\n";
  }
  return ok;
}

/// The untimed traced rerun of large_n3000, written to `path`. Returns
/// false when it recorded no `infer` span.
bool run_traced(const char* path, trace::RunReport& report) {
  trace::TraceSink sink;
  {
    const trace::ScopedSink scoped(&sink);
    run_experiment(large_n_config(nullptr));
  }
  const std::vector<trace::SpanRecord> spans = sink.spans();
  if (std::none_of(spans.begin(), spans.end(),
                   [](const trace::SpanRecord& s) {
                     return s.name == "infer";
                   })) {
    std::cerr << "ERROR: the traced rerun recorded no infer span\n";
    return false;
  }
  std::ofstream os(path);
  sink.write_chrome_trace(os);
  report.add_run("traced_rerun").capture(sink);
  std::cout << "wrote " << path << " (traced rerun, untimed)\n";
  return true;
}

}  // namespace
}  // namespace crowdrank

int main() {
  using namespace crowdrank;
  bench::banner("Pipeline perf",
                "the perf checks perfbench cannot make: the AVX2 SAPS fill, "
                "n = 3000 at the auto horizon, the telemetry overhead and "
                "two pool lanes running side by side");

  // Numbers published from an uncommitted tree are not reproducible from
  // the stamped revision; say so loudly up front (the stamp itself still
  // lands in the report either way).
  if (build_info().git_revision.find("-dirty") != std::string::npos) {
    std::cerr << "WARNING: building from a dirty tree ("
              << build_info().git_revision
              << "); commit before regenerating checked-in baselines\n";
  }

  trace::RunReport report("perf_pipeline");
  report.note("hardware_threads", static_cast<std::int64_t>(thread_count()));
  bool ok = run_saps_simd(report);
  ok = run_large_n(report) && ok;
  ok = run_telemetry_overhead(report) && ok;
  ok = run_pool_overlap(report) && ok;
  if (const char* trace_path = std::getenv("CROWDRANK_TRACE")) {
    ok = run_traced(trace_path, report) && ok;
  }

  if (!report.write_file("BENCH_pipeline.json")) {
    std::cerr << "ERROR: cannot write BENCH_pipeline.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_pipeline.json\n";
  return ok ? 0 : 1;
}
