// RankingService: a fault-tolerant batch-inference job engine.
//
// The service owns a set of job-executor threads, a bounded FIFO queue
// with configurable backpressure, and the lifecycle of every submitted
// `RankingJob`:
//
//     submit -> [Queued] -> [Running: hardening -> steps 1-4] -> Done
//                  |  \                |
//               cancel shed      deadline / cancel / stage error
//                  |    \               |
//              Cancelled Rejected   TimedOut / Cancelled / Failed
//
// Robustness contract:
//  * No exception escapes a job: every terminal state is a structured
//    `JobResult` (outcome, stage, reason, degradation report).
//  * Deadlines and cancellation are cooperative, enforced at the stage
//    checkpoints of core/checkpoint.hpp, so an aborted job unwinds
//    between stages and its executor immediately serves the next job —
//    a timed-out job never wedges the pool.
//  * Malformed batches are repaired by service/hardening.hpp; a job that
//    cannot produce a full ranking returns a partial ranking of the
//    largest reachable component with outcome Degraded.
//  * Results are deterministic per job (content depends only on the job
//    and its seed, never on worker count or interleaving), and `drain()`
//    reports them in submission order.
//  * Memory is bounded by the results not yet claimed: `wait(id)` hands a
//    job's result out once and drops its ticket, and `drain()` claims
//    every result no `wait` took. A long-lived service whose caller waits
//    on each job therefore holds only the jobs in flight.
//
// Each executor thread holds a `InlineRegion`, so the engine's internal
// parallel kernels run inline on the job's own lane: throughput scales by
// running jobs concurrently instead of serializing kernel-level regions
// on the global pool.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "service/hardening.hpp"
#include "service/job.hpp"
#include "service/result_cache.hpp"

namespace crowdrank::trace {
class TraceSink;
}  // namespace crowdrank::trace

namespace crowdrank::obs {
class Telemetry;
}  // namespace crowdrank::obs

namespace crowdrank::service {

/// What to do with a submission that finds the queue full.
enum class QueuePolicy {
  RejectNew,   ///< the new job is Rejected ("queue full")
  ShedOldest,  ///< the oldest queued job is Rejected ("shed"); new enters
};

struct ServiceConfig {
  std::size_t worker_count = 1;     ///< job-executor threads (>= 1)
  std::size_t queue_capacity = 64;  ///< max queued (not running) jobs
  QueuePolicy policy = QueuePolicy::RejectNew;
  /// Deadline for jobs that do not set their own (0 = none).
  std::chrono::milliseconds default_deadline{0};
  HardeningPolicy hardening;
  /// Runs the stage invariant validators for every job (ORed with each
  /// job's own `inference.check_invariants`).
  bool check_invariants = false;
  /// Service-level fault plan (tests): merged into any job whose
  /// submission index it applies to.
  FaultPlan fault;
  /// Optional service-lifetime sink: per-job spans, queue-depth gauge,
  /// outcome/shed counters, and latency histograms land here. Each
  /// executor installs it (trace::ScopedSink) around every job it runs,
  /// so the engine's spans nest under that job's `service.job` span.
  trace::TraceSink* trace = nullptr;
  /// Optional live telemetry plane (src/obs): flight-recorder events,
  /// stage/latency metrics, periodic snapshots, and per-job postmortems
  /// for every Failed / TimedOut / Degraded job. Purely observational —
  /// rankings are bitwise-identical with telemetry on or off. Must
  /// outlive the service; construct with `executor_count == worker_count`.
  obs::Telemetry* telemetry = nullptr;
  /// Optional shared result cache (must outlive the service). When set,
  /// each job's cache_control decides whether its content key is looked
  /// up before the pipeline runs — a hit settles the job without the
  /// infer stage and is bitwise-identical to recomputation. Null keeps
  /// every job on the historical cold path.
  ResultCache* cache = nullptr;
};

/// Aggregate counters, readable at any time.
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::size_t timed_out = 0;
  std::size_t cancelled = 0;
  std::size_t rejected = 0;  ///< invalid config, full queue, or shed
  std::size_t shed = 0;      ///< subset of rejected: evicted by ShedOldest
  std::size_t failed = 0;
  std::size_t queue_depth = 0;  ///< currently queued (not running)
  /// Tickets held: submitted jobs whose result is not yet claimed.
  std::size_t retained = 0;
};

class RankingService {
 public:
  explicit RankingService(ServiceConfig config = {});
  RankingService(const RankingService&) = delete;
  RankingService& operator=(const RankingService&) = delete;
  /// Cancels queued jobs, asks running jobs to stop at their next
  /// checkpoint, and joins the executors.
  ~RankingService();

  const ServiceConfig& config() const;

  /// Enqueues a job and returns its ticket id immediately. A job that
  /// cannot be accepted (invalid config per InferenceConfig::validate(),
  /// or a full queue under RejectNew) still gets a ticket whose result is
  /// already Rejected — `wait` explains why.
  std::uint64_t submit(RankingJob job);

  /// Requests cancellation. Queued jobs settle as Cancelled without
  /// running; a running job stops at its next stage checkpoint. Returns
  /// false when the job is unknown, already finished or already claimed.
  bool cancel(std::uint64_t id);

  /// Blocks until the job finishes and returns its result, claiming it:
  /// the service drops the ticket, so each result is handed out once. A
  /// second `wait` on the same id, or one after `drain` claimed it,
  /// throws crowdrank::Error.
  JobResult wait(std::uint64_t id);

  /// Waits for every job submitted so far whose result is not yet claimed
  /// and claims those results, in submission order. Results a `wait`
  /// already took are not repeated.
  std::vector<JobResult> drain();

  ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdrank::service
