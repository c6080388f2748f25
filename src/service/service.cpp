#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "core/pipeline.hpp"
#include "obs/telemetry.hpp"
#include "service/rank_entry.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace crowdrank::service {

const char* outcome_name(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::Completed:
      return "completed";
    case JobOutcome::Degraded:
      return "degraded";
    case JobOutcome::TimedOut:
      return "timed_out";
    case JobOutcome::Cancelled:
      return "cancelled";
    case JobOutcome::Rejected:
      return "rejected";
    case JobOutcome::Failed:
      return "failed";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Thrown by JobControl at a stage checkpoint to abort a job; caught by
/// the executor and mapped onto the structured outcome. Deliberately not
/// a std::exception so no intermediate catch(std::exception) handler in
/// library code can swallow an abort.
struct JobInterrupt {
  JobOutcome outcome;
  PipelineStage stage;
  std::string reason;
};

/// Applies a fault plan's deterministic vote mutations.
void mutate_votes(VoteBatch& votes, const FaultPlan& plan,
                  std::size_t object_count) {
  if (plan.drop_every_kth_vote > 0) {
    VoteBatch kept;
    kept.reserve(votes.size());
    for (std::size_t i = 0; i < votes.size(); ++i) {
      if ((i + 1) % plan.drop_every_kth_vote != 0) {
        kept.push_back(votes[i]);
      }
    }
    votes = std::move(kept);
  }
  if (plan.corrupt_every_kth_vote > 0) {
    for (std::size_t i = 0; i < votes.size(); ++i) {
      if ((i + 1) % plan.corrupt_every_kth_vote == 0) {
        votes[i].j = object_count + votes[i].i;  // out of any valid range
      }
    }
  }
}

/// Cooperative per-job controller: records progress, stalls/fails on an
/// injected fault, and aborts on cancellation or an expired deadline.
/// Checkpoint order — stall, cancel, deadline, injected failure — makes
/// the stall+deadline combination a deterministic TimedOut.
class JobControl final : public StageControl {
 public:
  JobControl(const std::atomic<bool>& cancel_requested,
             Clock::time_point deadline,
             std::vector<const FaultPlan*> faults,
             obs::Telemetry* telemetry, std::size_t executor,
             std::uint64_t job_id)
      : cancel_requested_(cancel_requested),
        deadline_(deadline),
        faults_(std::move(faults)),
        telemetry_(telemetry),
        executor_(executor),
        job_id_(job_id) {}

  void checkpoint(const StageSnapshot& snapshot) override {
    poll(snapshot.next);
  }

  /// Service-level stages (Hardening) poll directly with the stage id.
  void poll(PipelineStage next) {
    // Each checkpoint fires when the previous stage has just completed,
    // so the watch spans exactly one stage. Telemetry is observe-only.
    if (telemetry_ != nullptr && next != timed_stage_) {
      telemetry_->on_stage_checkpoint(
          executor_, job_id_, stage_name(timed_stage_),
          static_cast<std::uint8_t>(timed_stage_),
          stage_watch_.elapsed_millis());
      stage_watch_.restart();
      timed_stage_ = next;
    }
    if (next != PipelineStage::Done) {
      last_stage_ = next;
    }
    for (const FaultPlan* plan : faults_) {
      if (plan->stall_before == next &&
          plan->stall_duration.count() > 0) {
        std::this_thread::sleep_for(plan->stall_duration);
      }
    }
    if (cancel_requested_.load(std::memory_order_relaxed)) {
      throw JobInterrupt{JobOutcome::Cancelled, next,
                         "cancelled at stage checkpoint"};
    }
    if (Clock::now() > deadline_) {
      throw JobInterrupt{JobOutcome::TimedOut, next, "deadline exceeded"};
    }
    for (const FaultPlan* plan : faults_) {
      if (plan->fail_before == next) {
        throw JobInterrupt{JobOutcome::Failed, next, plan->fail_reason};
      }
    }
  }

  PipelineStage last_stage() const { return last_stage_; }

 private:
  const std::atomic<bool>& cancel_requested_;
  Clock::time_point deadline_;
  std::vector<const FaultPlan*> faults_;
  obs::Telemetry* telemetry_;
  std::size_t executor_;
  std::uint64_t job_id_;
  PipelineStage last_stage_ = PipelineStage::Validation;
  /// Stage currently being timed; the first poll (Hardening) matches it,
  /// so the first emission covers Hardening, not construction overhead.
  PipelineStage timed_stage_ = PipelineStage::Hardening;
  Stopwatch stage_watch_;
};

/// Names for the config echo of a postmortem.
const char* search_method_name(RankSearchMethod method) {
  switch (method) {
    case RankSearchMethod::Saps:
      return "saps";
    case RankSearchMethod::Taps:
      return "taps";
    case RankSearchMethod::HeldKarp:
      return "held_karp";
  }
  return "unknown";
}

/// The spans recorded under `root` (inclusive), re-parented so `root`
/// becomes the subtree's own root. Works on a snapshot: a span belongs to
/// the subtree iff its parent does, and parents always precede children.
std::vector<trace::SpanRecord> span_subtree(
    std::vector<trace::SpanRecord> spans, std::size_t root) {
  std::vector<trace::SpanRecord> out;
  if (root >= spans.size()) {
    return out;
  }
  constexpr std::size_t kUnmapped = trace::SpanRecord::kNoParent;
  std::vector<std::size_t> remap(spans.size(), kUnmapped);
  remap[root] = 0;
  out.push_back(std::move(spans[root]));
  out.front().parent = trace::SpanRecord::kNoParent;
  for (std::size_t i = root + 1; i < spans.size(); ++i) {
    const std::size_t p = spans[i].parent;
    if (p == trace::SpanRecord::kNoParent || remap[p] == kUnmapped) {
      continue;
    }
    spans[i].parent = remap[p];
    remap[i] = out.size();
    out.push_back(std::move(spans[i]));
  }
  return out;
}

}  // namespace

struct RankingService::Impl {
  struct Ticket {
    // Ownership protocol (why these fields carry no CR_GUARDED_BY): a
    // ticket's mutable fields (job, result, submit_time, deadline_point)
    // are written by the submit path under Impl::mutex while Queued, then
    // owned exclusively by one executor while Running (the state
    // transitions themselves happen under the mutex, which publishes the
    // handoff). Once Done, `result` is moved out exactly once, by the
    // wait() or drain() that erases the id from by_id while holding the
    // mutex, and nothing reads the ticket after that. `state` is only ever
    // touched under the mutex; `cancel_requested` is the one field both
    // sides touch concurrently and is atomic for exactly that reason.
    std::uint64_t id = 0;
    std::size_t index = 0;  ///< submission index (FaultPlan::only_job)
    /// Batch size at submit time: run_job moves `job.votes` out, so the
    /// span attribute and the postmortem echo read this instead.
    std::size_t vote_count = 0;
    RankingJob job;
    std::atomic<bool> cancel_requested{false};
    enum class State { Queued, Running, Done } state = State::Queued;
    JobResult result;
    Clock::time_point submit_time;
    Clock::time_point deadline_point = Clock::time_point::max();
  };

  ServiceConfig config;

  mutable Mutex mutex;
  CondVar work_ready;
  CondVar job_done;
  std::deque<std::shared_ptr<Ticket>> queue CR_GUARDED_BY(mutex);
  /// Every ticket whose result is not yet claimed, in submission order
  /// (ids rise with it). `wait` and `drain` erase what they hand out.
  std::map<std::uint64_t, std::shared_ptr<Ticket>> by_id CR_GUARDED_BY(mutex);
  // Written only by the constructor (before any executor exists) and
  // joined by the destructor after the stop handshake; never touched in
  // between, so it needs no guard (TSA does not analyze ctors/dtors).
  std::vector<std::thread> executors;
  ServiceStats counters CR_GUARDED_BY(mutex);
  std::uint64_t next_id CR_GUARDED_BY(mutex) = 1;
  bool stopping CR_GUARDED_BY(mutex) = false;

  // -- metrics plumbing (no-ops when config.trace is null) ------------

  void count_outcome(JobOutcome outcome) CR_REQUIRES(mutex) {
    switch (outcome) {
      case JobOutcome::Completed:
        ++counters.completed;
        break;
      case JobOutcome::Degraded:
        ++counters.degraded;
        break;
      case JobOutcome::TimedOut:
        ++counters.timed_out;
        break;
      case JobOutcome::Cancelled:
        ++counters.cancelled;
        break;
      case JobOutcome::Rejected:
        ++counters.rejected;
        break;
      case JobOutcome::Failed:
        ++counters.failed;
        break;
    }
    if (config.trace != nullptr) {
      config.trace->metrics()
          .counter(std::string("service.outcome.") + outcome_name(outcome))
          .add(1);
    }
    if (config.telemetry != nullptr) {
      config.telemetry->on_outcome(outcome_name(outcome));
    }
  }

  void gauge_queue_depth() CR_REQUIRES(mutex) {
    counters.queue_depth = queue.size();
    if (config.trace != nullptr) {
      config.trace->metrics().gauge("service.queue_depth").set(
          static_cast<double>(queue.size()));
    }
    if (config.telemetry != nullptr) {
      config.telemetry->on_queue_depth(queue.size());
    }
  }

  // -- lifecycle ------------------------------------------------------

  // Used for jobs that never run (rejected, shed, cancelled while queued).
  void settle(Ticket& ticket, JobOutcome outcome, PipelineStage stage,
              std::string reason) CR_REQUIRES(mutex) {
    ticket.result.id = ticket.id;
    ticket.result.outcome = outcome;
    ticket.result.stage = stage;
    ticket.result.reason = std::move(reason);
    ticket.state = Ticket::State::Done;
    count_outcome(outcome);
    if (config.telemetry != nullptr) {
      config.telemetry->on_job_settled(ticket.id, outcome_name(outcome),
                                       static_cast<std::uint8_t>(outcome));
    }
    job_done.notify_all();
  }

  void executor_loop(std::size_t executor) {
    // Kernel-level parallel regions of this job run inline on this
    // thread: jobs are the unit of parallelism, so N executors never
    // serialize on the global pool's region lock.
    InlineRegion inline_region;
    MutexLock lock(mutex);
    while (true) {
      while (!stopping && queue.empty()) {
        work_ready.wait(mutex);
      }
      if (queue.empty()) {
        if (stopping) {
          return;
        }
        continue;
      }
      std::shared_ptr<Ticket> ticket = queue.front();
      queue.pop_front();
      gauge_queue_depth();
      if (ticket->state == Ticket::State::Done) {
        continue;  // cancelled or shed while queued
      }
      ticket->state = Ticket::State::Running;
      lock.unlock();
      run_job(*ticket, executor);
      lock.lock();
      ticket->state = Ticket::State::Done;
      count_outcome(ticket->result.outcome);
      job_done.notify_all();
    }
  }

  void run_job(Ticket& ticket, std::size_t executor) {
    JobResult& r = ticket.result;
    r.id = ticket.id;
    const Stopwatch run_watch;
    r.queue_ms = std::chrono::duration<double, std::milli>(
                     Clock::now() - ticket.submit_time)
                     .count();

    obs::Telemetry* telemetry = config.telemetry;
    if (telemetry != nullptr) {
      telemetry->on_job_started(executor, ticket.id, r.queue_ms);
    }

    // The job records into the service's sink on this executor, so the
    // engine's spans nest under its service.job span.
    trace::TraceSink* sink = config.trace;
    const trace::ScopedSink scoped_sink(sink);
    std::optional<trace::Span> span(std::in_place, "service.job");
    span->set_attr("id", ticket.id);
    span->set_attr("votes", ticket.vote_count);

    // Which fault plans apply to this job: its own, plus the
    // service-level plan when the submission index matches.
    std::vector<const FaultPlan*> faults;
    if (!ticket.job.fault.inert() &&
        ticket.job.fault.applies_to(ticket.index)) {
      faults.push_back(&ticket.job.fault);
    }
    if (!config.fault.inert() && config.fault.applies_to(ticket.index)) {
      faults.push_back(&config.fault);
    }

    JobControl control(ticket.cancel_requested, ticket.deadline_point,
                       faults, telemetry, executor, ticket.id);
    try {
      // Service stage: input hardening (plus injected vote mutations).
      control.poll(PipelineStage::Hardening);
      // This executor owns the ticket while it runs and nothing reads the
      // batch afterwards, so it moves out instead of being copied and the
      // retained ticket keeps no votes.
      VoteBatch votes = std::move(ticket.job.votes);
      for (const FaultPlan* plan : faults) {
        mutate_votes(votes, *plan, ticket.job.object_count);
      }

      // The shared entry (rank_entry.hpp) runs cache lookup -> harden ->
      // infer -> id remap exactly as the api facade does; JobInterrupt
      // thrown by `control` at a checkpoint passes through it untouched.
      RankParams params;
      params.votes = &votes;
      params.object_count = ticket.job.object_count;
      params.worker_count = ticket.job.worker_count;
      params.seed = ticket.job.seed;
      params.inference = &ticket.job.inference;
      params.repair = true;
      params.hardening = &config.hardening;
      params.control = &control;
      params.check_invariants = config.check_invariants;
      params.cache = config.cache;
      params.cache_control = ticket.job.cache_control;
      params.on_hardened = [&](const HardeningReport& report) {
        // Copy the accounting onto the result immediately: a fault or
        // deadline interrupt unwinds run_ranking's local outcome, and the
        // postmortem still needs the hardening numbers.
        r.hardening = report;
        if (telemetry != nullptr && report.repaired()) {
          telemetry->on_hardening(
              executor, ticket.id,
              static_cast<std::uint64_t>(report.input_votes -
                                         report.retained_votes));
        }
      };

      Rng rng(ticket.job.seed);
      RankOutcome out = run_ranking(params, rng);
      r.outcome = out.outcome;
      r.stage = out.stage;
      r.reason = std::move(out.reason);
      r.ranking = std::move(out.ranking);
      r.hardening = std::move(out.hardening);
      r.log_probability = out.log_probability;
      r.served_from_cache = out.cache.served_from_cache;
      r.artifact_key = std::move(out.cache.key_hex);
      r.artifact_schema_version =
          out.cache.consulted ? artifact::kRankedResultSchema : 0;
      if (out.cache.consulted) {
        if (config.trace != nullptr) {
          config.trace->metrics()
              .counter(out.cache.served_from_cache ? "service.cache.job_hit"
                                                   : "service.cache.job_miss")
              .add(1);
        }
        if (telemetry != nullptr) {
          telemetry->on_cache(out.cache.served_from_cache ? "hit" : "miss");
          if (out.cache.stored) {
            telemetry->on_cache("store");
          }
        }
      }
    } catch (const JobInterrupt& interrupt) {
      r.outcome = interrupt.outcome;
      r.stage = interrupt.stage;
      r.reason = interrupt.reason;
    } catch (const std::exception& e) {
      r.outcome = JobOutcome::Failed;
      r.stage = control.last_stage();
      r.reason = e.what();
    } catch (...) {
      r.outcome = JobOutcome::Failed;
      r.stage = control.last_stage();
      r.reason = "unknown exception";
    }
    r.run_ms = run_watch.elapsed_millis();

    const std::size_t span_index = span->index();
    if (sink != nullptr) {
      span->set_attr("outcome", outcome_name(r.outcome));
      span->set_attr("stage", stage_name(r.stage));
      // Stamp the whole subtree (engine spans included) with the job
      // identity so interleaved executor timelines stay attributable.
      sink->annotate_descendants(span_index, "job",
                                 static_cast<std::int64_t>(ticket.id));
      sink->annotate_descendants(span_index, "outcome",
                                 std::string(outcome_name(r.outcome)));
      sink->metrics().histogram("service.job_ms").observe(r.run_ms);
      sink->metrics().histogram("service.queue_ms").observe(r.queue_ms);
    }
    span.reset();  // closed before a postmortem snapshots it
    if (telemetry != nullptr) {
      telemetry->on_job_finished(executor, ticket.id,
                                 outcome_name(r.outcome),
                                 static_cast<std::uint8_t>(r.outcome),
                                 r.queue_ms, r.run_ms);
      if (r.outcome == JobOutcome::Failed ||
          r.outcome == JobOutcome::TimedOut ||
          r.outcome == JobOutcome::Degraded) {
        telemetry->write_postmortem(
            build_postmortem(ticket, executor, sink, span_index));
      }
    }
  }

  /// Everything known about a just-finished bad job, gathered for the
  /// postmortem file: terminal state, config echo, hardening accounting,
  /// the job's span subtree, and the executor's flight-recorder window.
  obs::Postmortem build_postmortem(const Ticket& ticket,
                                   std::size_t executor,
                                   const trace::TraceSink* sink,
                                   std::size_t span) const {
    const JobResult& r = ticket.result;
    obs::Postmortem postmortem;
    postmortem.job_id = ticket.id;
    postmortem.executor = executor;
    postmortem.outcome = outcome_name(r.outcome);
    postmortem.stage = stage_name(r.stage);
    postmortem.reason = r.reason;
    postmortem.t_us = config.telemetry->now_us();

    const RankingJob& job = ticket.job;
    postmortem.config_echo = {
        {"seed", static_cast<std::int64_t>(job.seed)},
        {"object_count", static_cast<std::int64_t>(job.object_count)},
        {"worker_count", static_cast<std::int64_t>(job.worker_count)},
        {"votes", static_cast<std::int64_t>(ticket.vote_count)},
        {"search", std::string(search_method_name(job.inference.search))},
        {"check_invariants",
         job.inference.check_invariants || config.check_invariants},
        {"deadline_ms", static_cast<std::int64_t>(job.deadline.count())},
    };

    const HardeningReport& h = r.hardening;
    postmortem.hardening = {
        {"input_votes", static_cast<std::int64_t>(h.input_votes)},
        {"retained_votes", static_cast<std::int64_t>(h.retained_votes)},
        {"dropped_out_of_range",
         static_cast<std::int64_t>(h.dropped_out_of_range)},
        {"dropped_self", static_cast<std::int64_t>(h.dropped_self)},
        {"dropped_duplicate",
         static_cast<std::int64_t>(h.dropped_duplicate)},
        {"dropped_conflicting",
         static_cast<std::int64_t>(h.dropped_conflicting)},
        {"dropped_disconnected",
         static_cast<std::int64_t>(h.dropped_disconnected)},
        {"component_count", static_cast<std::int64_t>(h.component_count)},
        {"excluded_objects",
         static_cast<std::int64_t>(h.excluded_objects.size())},
    };

    if (sink != nullptr) {
      postmortem.spans = span_subtree(sink->spans(), span);
    }
    obs::RingSnapshot window =
        config.telemetry->recorder().snapshot(executor + 1);
    postmortem.events = std::move(window.events);
    return postmortem;
  }
};

RankingService::RankingService(ServiceConfig config)
    : impl_(std::make_unique<Impl>()) {
  CR_EXPECTS(config.worker_count >= 1,
             "RankingService needs at least one executor");
  CR_EXPECTS(config.queue_capacity >= 1,
             "RankingService queue capacity must be at least 1");
  impl_->config = std::move(config);
  impl_->executors.reserve(impl_->config.worker_count);
  for (std::size_t i = 0; i < impl_->config.worker_count; ++i) {
    impl_->executors.emplace_back([impl = impl_.get(), i] {
      impl->executor_loop(i);
    });
  }
}

RankingService::~RankingService() {
  {
    MutexLock lock(impl_->mutex);
    impl_->stopping = true;
    // Queued jobs settle as Cancelled; running jobs are asked to stop at
    // their next checkpoint.
    for (const auto& ticket : impl_->queue) {
      if (ticket->state == Impl::Ticket::State::Queued) {
        impl_->settle(*ticket, JobOutcome::Cancelled,
                      PipelineStage::Validation, "service shut down");
      }
    }
    impl_->queue.clear();
    impl_->gauge_queue_depth();
    for (const auto& [id, ticket] : impl_->by_id) {
      if (ticket->state == Impl::Ticket::State::Running) {
        ticket->cancel_requested.store(true, std::memory_order_relaxed);
      }
    }
  }
  impl_->work_ready.notify_all();
  for (std::thread& t : impl_->executors) {
    t.join();
  }
}

const ServiceConfig& RankingService::config() const {
  return impl_->config;
}

std::uint64_t RankingService::submit(RankingJob job) {
  // Structured validation happens before the job is admitted, so a bad
  // config is a Rejected outcome, not a mid-pipeline throw. Shared with
  // api::validate (rank_entry.hpp) minus the facade's empty-batch check:
  // an empty batch historically runs and fails hardening instead.
  RankParams probe;
  probe.votes = &job.votes;
  probe.inference = &job.inference;
  probe.hardening = &impl_->config.hardening;
  probe.cache = impl_->config.cache;
  probe.cache_control = job.cache_control;
  const std::vector<ConfigError> errors =
      validate_rank_params(probe, /*require_votes=*/false);

  MutexLock lock(impl_->mutex);
  auto ticket = std::make_shared<Impl::Ticket>();
  ticket->id = impl_->next_id++;
  ticket->index = impl_->counters.submitted++;
  ticket->submit_time = Clock::now();
  const auto deadline = job.deadline.count() > 0
                            ? job.deadline
                            : impl_->config.default_deadline;
  if (deadline.count() > 0) {
    ticket->deadline_point = ticket->submit_time + deadline;
  }
  ticket->vote_count = job.votes.size();
  ticket->job = std::move(job);
  impl_->by_id.emplace(ticket->id, ticket);

  if (!errors.empty()) {
    impl_->settle(*ticket, JobOutcome::Rejected, PipelineStage::Validation,
                  "invalid config: " + format_config_errors(errors));
    return ticket->id;
  }
  if (impl_->stopping) {
    impl_->settle(*ticket, JobOutcome::Rejected, PipelineStage::Validation,
                  "service shutting down");
    return ticket->id;
  }
  if (impl_->queue.size() >= impl_->config.queue_capacity) {
    if (impl_->config.policy == QueuePolicy::RejectNew) {
      impl_->settle(*ticket, JobOutcome::Rejected,
                    PipelineStage::Validation, "queue full");
      return ticket->id;
    }
    // ShedOldest: evict the head of the queue to make room.
    std::shared_ptr<Impl::Ticket> oldest = impl_->queue.front();
    impl_->queue.pop_front();
    ++impl_->counters.shed;
    if (impl_->config.trace != nullptr) {
      impl_->config.trace->metrics().counter("service.shed").add(1);
    }
    if (impl_->config.telemetry != nullptr) {
      impl_->config.telemetry->on_job_shed(oldest->id,
                                           impl_->queue.size());
    }
    impl_->settle(*oldest, JobOutcome::Rejected, PipelineStage::Validation,
                  "shed: queue full and policy is ShedOldest");
  }
  impl_->queue.push_back(ticket);
  impl_->gauge_queue_depth();
  if (impl_->config.telemetry != nullptr) {
    impl_->config.telemetry->on_job_accepted(ticket->id,
                                             impl_->queue.size());
  }
  impl_->work_ready.notify_one();
  return ticket->id;
}

bool RankingService::cancel(std::uint64_t id) {
  MutexLock lock(impl_->mutex);
  const auto it = impl_->by_id.find(id);
  if (it == impl_->by_id.end()) {
    return false;
  }
  Impl::Ticket& ticket = *it->second;
  switch (ticket.state) {
    case Impl::Ticket::State::Queued:
      // Settles immediately; the executor skips Done tickets on pop.
      impl_->settle(ticket, JobOutcome::Cancelled,
                    PipelineStage::Validation, "cancelled while queued");
      return true;
    case Impl::Ticket::State::Running:
      ticket.cancel_requested.store(true, std::memory_order_relaxed);
      return true;
    case Impl::Ticket::State::Done:
      return false;
  }
  return false;
}

JobResult RankingService::wait(std::uint64_t id) {
  MutexLock lock(impl_->mutex);
  const auto it = impl_->by_id.find(id);
  CR_EXPECTS(it != impl_->by_id.end(), "unknown or already claimed job id");
  const std::shared_ptr<Impl::Ticket> ticket = it->second;
  while (ticket->state != Impl::Ticket::State::Done) {
    impl_->job_done.wait(impl_->mutex);
  }
  // A concurrent wait or drain may have claimed it meanwhile.
  const bool claimed = impl_->by_id.erase(id) == 1;
  CR_EXPECTS(claimed, "job result already claimed");
  return std::move(ticket->result);
}

std::vector<JobResult> RankingService::drain() {
  MutexLock lock(impl_->mutex);
  // Snapshot now: jobs submitted while draining are not waited on.
  std::vector<std::shared_ptr<Impl::Ticket>> tickets;
  tickets.reserve(impl_->by_id.size());
  for (const auto& [id, ticket] : impl_->by_id) {
    tickets.push_back(ticket);
  }
  std::vector<JobResult> results;
  results.reserve(tickets.size());
  for (const auto& ticket : tickets) {
    while (ticket->state != Impl::Ticket::State::Done) {
      impl_->job_done.wait(impl_->mutex);
    }
    if (impl_->by_id.erase(ticket->id) == 1) {
      results.push_back(std::move(ticket->result));
    }
  }
  return results;
}

ServiceStats RankingService::stats() const {
  MutexLock lock(impl_->mutex);
  ServiceStats stats = impl_->counters;
  stats.retained = impl_->by_id.size();
  return stats;
}

}  // namespace crowdrank::service
