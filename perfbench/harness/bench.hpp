// Shared vocabulary of the end-to-end benchmark harness: run options, the
// report every workload fills, the simulated crowd round that makes its
// inputs, and the probes (clock, spans, allocation counters, process
// resources) it measures with. The harness reaches the library only through
// crowdrank.hpp's public surfaces, never through engine internals.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "crowdrank.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The workload seed every run is given; its accuracy is pinned exactly.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  Clock::time_point started = Clock::now();  ///< process start (main entry)
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Toy-sized inputs for the smoke self-test (no accuracy pin).
  bool toy = false;
  /// Fault injected to prove a check fires: "wrong_ranking" or "cache_miss".
  std::string inject;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` is the machine-read result (end-to-end
/// metrics untraced, per-layer metrics traced); `notes` are printed for
/// people only.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  std::vector<std::pair<std::string, std::string>> env;

  /// Counts one failed operation and keeps the first few reasons.
  void fail(const std::string& why);
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
  void env_item(std::string key, std::string value) {
    env.emplace_back(std::move(key), std::move(value));
  }
};

/// Derives job `index` of stream `stream` from the workload seed
/// (SplitMix64 finalizer), so both sides of a comparison rank the same jobs.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t index);

/// Seed streams: warm-up jobs, timed jobs, fixed replay batches.
inline constexpr std::uint64_t kWarmupStream = 1;
inline constexpr std::uint64_t kTimedStream = 2;
inline constexpr std::uint64_t kReplayStream = 3;

/// The paper's simulated crowd: m = 30 Gaussian-medium workers answer
/// every task of a c = 5, w = 3 HIT assignment (§VI).
inline constexpr std::size_t kWorkerPool = 30;
inline constexpr std::size_t kWorkersPerTask = 3;
inline constexpr std::size_t kComparisonsPerHit = 5;

/// One simulated non-interactive round: hidden truth, plan, votes.
struct CrowdRound {
  crowdrank::Ranking truth{std::vector<crowdrank::VertexId>{0}};
  crowdrank::VoteBatch votes;
  Clock::time_point plan_start;  ///< generate_task_assignment entered
  Clock::time_point assigned;    ///< ... returned; HitAssignment built next
  Clock::time_point planned;     ///< HitAssignment built
};

/// Runs the round for `seed` over n objects with `tasks` unique tasks,
/// in run_experiment's draw order. Only the two planning calls are timed
/// and counted by the allocation probe; truth and votes are input.
CrowdRound simulate_round(std::uint64_t seed, std::size_t n,
                          std::size_t tasks);

/// Unique tasks l = round(ratio * C(n, 2)) as the budget model sets them.
std::size_t task_count(std::size_t n, double ratio);

/// Empty when `order` + `excluded` is a permutation of 0..n-1.
std::string permutation_error(const crowdrank::service::PartialRanking& r,
                              std::size_t n);

/// Empty when the job (an api::Response or a JobResult) ended Completed
/// or Degraded with `ranking` a permutation of its n objects.
template <typename Result>
std::string result_error(const Result& result,
                         const crowdrank::service::PartialRanking& ranking,
                         std::size_t n) {
  using crowdrank::service::JobOutcome;
  if (result.outcome != JobOutcome::Completed &&
      result.outcome != JobOutcome::Degraded) {
    return std::string("outcome ") +
           crowdrank::service::outcome_name(result.outcome) + ": " +
           result.reason;
  }
  return permutation_error(ranking, n);
}

/// 1 - normalized Kendall tau against the truth; objects a degraded job
/// could not rank are appended in id order.
double accuracy_of(const crowdrank::Ranking& truth,
                   const crowdrank::service::PartialRanking& r);

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// ---- process probes (probe.cpp) ----------------------------------------

/// Process CPU time (user + system), ms.
double cpu_ms();
/// Peak resident set size, MB.
double peak_rss_mb();
/// Host CPU counters from /proc/stat, for the steal share of a phase.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
CpuTicks cpu_ticks();
double steal_pct(const CpuTicks& before, const CpuTicks& after);

/// Host memory-copy bandwidth right now, GB/s. Neighbours contending for
/// the shared cache and DRAM slow memory-bound stages without showing up
/// as steal time; this tells such a run apart from a regression.
double memory_copy_gbs();

/// Records nproc, pool width, SIMD backend and build revision.
void record_environment(Report& report, std::size_t pool_width,
                        std::size_t executors, std::size_t in_flight);

/// Timed-phase bookkeeping shared by every workload: wall clock, CPU
/// clock and host steal over exactly the measured interval.
struct Phase {
  Clock::time_point start = Clock::now();
  double cpu_start = cpu_ms();
  CpuTicks ticks = cpu_ticks();

  double elapsed_s() const {
    return ms_between(start, Clock::now()) / 1000.0;
  }
};

// ---- allocation counting (alloc_count.cpp) -----------------------------

/// Global operator new calls and bytes, counted only while enabled.
struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
AllocCounts alloc_counts();
/// While alive, allocations on this thread are not counted (the load
/// generator's own input building is not the system's work).
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool previous_;
};

// ---- spans (spans.cpp) -------------------------------------------------

/// In-memory span log of the traced run. Spans are recorded by the load
/// generator thread only, so the log needs no locking.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  explicit SpanLog(std::size_t reserve);

  /// Records a finished span; returns its id (parents are recorded after
  /// their children close, so ids are assigned up front by `reserve_id`).
  int reserve_id();
  void set(int id, const char* name, int parent, std::uint64_t job,
           Clock::time_point start, Clock::time_point end);
  int add(const char* name, int parent, std::uint64_t job,
          Clock::time_point start, Clock::time_point end);

  /// Per span name: spans and self ms (duration minus the part its
  /// children cover), in first-seen order.
  struct Layer {
    std::string name;
    std::size_t spans = 0;
    double self_ms = 0.0;
  };
  std::vector<Layer> layers() const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto) of the first
  /// kMaxWritten spans.
  bool write(const std::string& path) const;
  static constexpr std::size_t kMaxWritten = 50000;

 private:
  struct Span {
    const char* name = nullptr;
    int parent = kNoParent;
    std::uint64_t job = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// StageControl that timestamps every checkpoint api::rank passes, so the
/// rank interval splits into pre-engine, steps 1-4 and post-engine.
class StageStamps final : public crowdrank::StageControl {
 public:
  void checkpoint(const crowdrank::StageSnapshot& snapshot) override;
  /// Stamps before step 1..4 and at Done; complete() once all five fired.
  bool complete() const { return count_ == kStamps; }
  /// Records rank → {pre_engine, step1..4, post_engine} under `parent`
  /// and returns the six interval lengths in ms.
  std::vector<double> record(SpanLog& log, int parent, std::uint64_t job,
                             Clock::time_point enter,
                             Clock::time_point leave) const;

  static constexpr std::size_t kStamps = 5;
  static const char* const kIntervalNames[kStamps + 1];

 private:
  Clock::time_point stamps_[kStamps];
  std::size_t count_ = 0;
};

// ---- reported metrics (report.cpp) -------------------------------------

/// The end-to-end metrics every workload reports untraced.
struct EndToEnd {
  double setup_s = 0.0;
  double latency_ms_p50 = 0.0;
  double throughput_jobs_s = 0.0;
  double accuracy = 0.0;
  double peak_rss_mb = 0.0;
};
void emit(Report& report, const EndToEnd& figures);

/// The per-layer metrics of the traced run. A layer the workload's traffic
/// never reaches reads 0.
struct LayerFigures {
  double hit_build_ms = 0.0;
  double task_assignment_ms = 0.0;
  /// Mean per-job rank intervals in StageStamps::kIntervalNames order.
  double rank_intervals_ms[StageStamps::kStamps + 1] = {};
  double harden_ms = 0.0;
  double truth_iterations = 0.0;
  double one_edges_smoothed = 0.0;
  double step3_doubling_steps = 0.0;
  double step3_densify_step = 0.0;
  double step3_fill_ratio = 0.0;
  double step3_sparse_gflop = 0.0;
  double step3_dense_gflop = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  double cache_key_us = 0.0;
  double cache_lookup_us = 0.0;
  double cache_insert_us = 0.0;
  double cache_evictions_per_job = 0.0;
  double cache_hit_ratio = 0.0;
  double cpu_per_wall = 0.0;
  double heap_allocs_per_job = 0.0;
  double heap_bytes_per_job = 0.0;
  double trace_overhead_latency_pct = 0.0;
  double trace_overhead_throughput_pct = 0.0;
};
void emit(Report& report, const LayerFigures& figures);

/// Adds one job's engine diagnostics (Response::inference) to the sums in
/// `figures`; `finish_counts` divides them by the job count.
void add_engine_counts(LayerFigures& figures,
                       const crowdrank::InferenceResult& inference,
                       std::size_t spectral_horizon,
                       std::size_t max_length);
void finish_counts(LayerFigures& figures, std::size_t jobs);

/// Fails the run unless `accuracy` equals the seed-1 `pin` (full-size
/// runs of the default seed) or clears `floor` (every other run).
void check_accuracy(Report& report, const Options& options, double accuracy,
                    double pin, double floor);

/// One half of a traced run: the untraced one or the traced one. Both
/// run jobs 0, 1, ... of the timed stream; `orders` holds their rankings.
struct Half {
  const std::vector<double>& latency_ms;
  const std::vector<std::vector<crowdrank::VertexId>>& orders;
  double throughput = 0.0;
  double steal_pct = 0.0;
};

/// Completes a traced run: checks that traced rankings equal untraced ones,
/// then reports heap counts per traced job, tracing overhead (traced half
/// against untraced half), the per-layer metrics, self-time notes per span
/// name, and writes the span file.
void finish_traced(Report& report, const Options& options, const SpanLog& log,
                   LayerFigures& figures, const Half& plain, const Half& traced,
                   const AllocCounts& heap);

// ---- workloads ---------------------------------------------------------

Report run_pipeline(const Options& options);
Report run_serve(const Options& options);

}  // namespace perfbench
