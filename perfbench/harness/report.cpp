// The fixed metric sets: every workload reports the same names, so the
// result line always matches BENCHMARK.json's lists.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.hpp"

namespace perfbench {

void emit(Report& report, const EndToEnd& f) {
  report.metric("setup_s", f.setup_s, "s");
  report.metric("latency_ms_p50", f.latency_ms_p50, "ms");
  report.metric("throughput_jobs_s", f.throughput_jobs_s, "1/s");
  report.metric("accuracy", f.accuracy, "ratio");
  report.metric("peak_rss_mb", f.peak_rss_mb, "MB");
}

void emit(Report& report, const LayerFigures& f) {
  report.metric("crowd.hit_build_ms", f.hit_build_ms, "ms");
  report.metric("core.task_assignment_ms", f.task_assignment_ms, "ms");
  for (std::size_t i = 0; i <= StageStamps::kStamps; ++i) {
    report.metric(std::string(StageStamps::kIntervalNames[i]) + "_ms",
                  f.rank_intervals_ms[i], "ms");
  }
  report.metric("service.harden_ms", f.harden_ms, "ms");
  report.metric("core.truth_iterations", f.truth_iterations, "count");
  report.metric("core.one_edges_smoothed", f.one_edges_smoothed, "count");
  report.metric("core.step3_doubling_steps", f.step3_doubling_steps, "count");
  report.metric("core.step3_densify_step", f.step3_densify_step, "count");
  report.metric("core.step3_fill_ratio", f.step3_fill_ratio, "ratio");
  report.metric("core.step3_sparse_gflop", f.step3_sparse_gflop, "GFLOP");
  report.metric("core.step3_dense_gflop", f.step3_dense_gflop, "GFLOP");
  report.metric("service.queue_ms", f.queue_ms, "ms");
  report.metric("service.run_ms", f.run_ms, "ms");
  report.metric("service.cache_key_us", f.cache_key_us, "us");
  report.metric("service.cache_lookup_us", f.cache_lookup_us, "us");
  report.metric("service.cache_insert_us", f.cache_insert_us, "us");
  report.metric("service.cache_evictions_per_job", f.cache_evictions_per_job,
                "count");
  report.metric("service.cache_hit_ratio", f.cache_hit_ratio, "ratio");
  report.metric("util.cpu_per_wall", f.cpu_per_wall, "ratio");
  report.metric("util.heap_allocs_per_job", f.heap_allocs_per_job, "count");
  report.metric("util.heap_bytes_per_job", f.heap_bytes_per_job, "B");
  report.metric("bench.trace_overhead_latency_pct",
                f.trace_overhead_latency_pct, "%");
  report.metric("bench.trace_overhead_throughput_pct",
                f.trace_overhead_throughput_pct, "%");
}

void add_engine_counts(LayerFigures& f, const crowdrank::InferenceResult& r,
                       std::size_t spectral_horizon, std::size_t max_length) {
  const auto& s3 = r.step3;
  f.truth_iterations += static_cast<double>(r.step1.iterations);
  f.one_edges_smoothed += static_cast<double>(r.step2.one_edges_smoothed);
  f.step3_doubling_steps += static_cast<double>(s3.doubling_steps);
  f.step3_densify_step += static_cast<double>(s3.densify_step);
  f.step3_fill_ratio += s3.fill_ratio;
  f.step3_sparse_gflop += static_cast<double>(s3.sparse_flops) / 1e9;

  // Computed, not counted (DESIGN.md §7c): each dense doubling step runs
  // S·P and P·P, 2n^3 flops apiece, except that the step reaching the
  // walk-length target skips P·P.
  const std::size_t dense_steps =
      s3.densify_step == 0 ? 0 : s3.doubling_steps - s3.densify_step + 1;
  if (dense_steps > 0) {
    const double n = static_cast<double>(r.ranking.size());
    const std::size_t target =
        spectral_horizon > 0 ? spectral_horizon
                             : std::max(max_length, r.ranking.size());
    const bool reached = (std::size_t{1} << s3.doubling_steps) >= target;
    const double products =
        2.0 * static_cast<double>(dense_steps) - (reached ? 1.0 : 0.0);
    f.step3_dense_gflop += products * 2.0 * n * n * n / 1e9;
  }
}

void finish_counts(LayerFigures& f, std::size_t jobs) {
  if (jobs == 0) {
    return;
  }
  const double k = static_cast<double>(jobs);
  for (double* v : {&f.truth_iterations, &f.one_edges_smoothed,
                    &f.step3_doubling_steps, &f.step3_densify_step,
                    &f.step3_fill_ratio, &f.step3_sparse_gflop,
                    &f.step3_dense_gflop}) {
    *v /= k;
  }
}

void check_accuracy(Report& report, const Options& options, double accuracy,
                    double pin, double floor) {
  if (options.seed == kDefaultSeed && !options.toy) {
    if (std::abs(accuracy - pin) > 1e-9) {
      report.fail("accuracy " + std::to_string(accuracy) +
                  " differs from the pinned " + std::to_string(pin));
    }
  } else if (accuracy < floor) {
    report.fail("accuracy " + std::to_string(accuracy) + " below the floor " +
                std::to_string(floor));
  }
}

void finish_traced(Report& report, const Options& options, const SpanLog& log,
                   LayerFigures& f, const Half& plain, const Half& traced,
                   const AllocCounts& heap) {
  const std::size_t common = std::min(plain.orders.size(), traced.orders.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (plain.orders[i] != traced.orders[i]) {
      report.fail("job " + std::to_string(i) +
                  ": traced ranking differs from the untraced one");
    }
  }
  const double jobs = static_cast<double>(traced.latency_ms.size());
  f.heap_allocs_per_job = static_cast<double>(heap.calls) / jobs;
  f.heap_bytes_per_job = static_cast<double>(heap.bytes) / jobs;
  const double plain_p50 = quantile(plain.latency_ms, 0.5);
  f.trace_overhead_latency_pct =
      100.0 * (quantile(traced.latency_ms, 0.5) - plain_p50) / plain_p50;
  f.trace_overhead_throughput_pct =
      100.0 * (plain.throughput - traced.throughput) / plain.throughput;
  emit(report, f);

  for (const SpanLog::Layer& layer : log.layers()) {
    report.note("self." + layer.name + "_ms",
                layer.self_ms / static_cast<double>(layer.spans), "ms");
  }
  report.note("untraced_jobs", static_cast<double>(plain.latency_ms.size()),
              "count");
  report.note("traced_jobs", jobs, "count");
  report.note("steal_pct", traced.steal_pct, "%");
  if (!options.trace_out.empty() && !log.write(options.trace_out)) {
    std::cerr << "perfbench: cannot write " << options.trace_out << "\n";
  }
}

}  // namespace perfbench
