#include "util/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/trace.hpp"

namespace crowdrank {

namespace {

/// Set while the current thread executes tasks of an active region; nested
/// parallel calls observe it and run inline instead of re-entering the pool.
thread_local bool t_in_region = false;

// Work-stealing lane ranges pack a half-open task interval [next, end)
// into one atomic word: next in the high 32 bits, end in the low 32.
// Owners pop the front (next += 1); thieves chop the tail (end -= take)
// and park the stolen interval in their own, empty lane. Both transitions
// are CAS-guarded on the full word, and a given interval value always
// describes tasks currently present in that lane (intervals only split —
// a multi-task interval is never re-assembled — so a stale CAS that
// happens to match still claims exactly the tasks it names, once).
constexpr std::uint64_t pack_range(std::uint64_t next, std::uint64_t end) {
  return (next << 32) | end;
}
constexpr std::uint32_t range_next(std::uint64_t pack) {
  return static_cast<std::uint32_t>(pack >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t pack) {
  return static_cast<std::uint32_t>(pack & 0xffffffffu);
}

// Lane placement. The caller wakes the worker lanes, and Linux tends to
// queue a woken thread on the waker's CPU, behind the caller's own lane;
// from then on the lane's previous CPU is busy at every wake, so it never
// leaves, and every region runs on one CPU. So `run` records the caller's
// CPU, and a lane that starts draining on it narrows its affinity mask by
// that CPU, which moves it to another allowed CPU at once, and restores
// the old mask when its drain ends. A no-op off Linux, when the lane runs
// elsewhere, and when one CPU is allowed.
#if defined(__linux__)
/// The CPU the calling thread runs on, or -1 where that is unknown.
int current_cpu() { return sched_getcpu(); }

class LeaveCallerCpu {
 public:
  explicit LeaveCallerCpu(int caller_cpu) {
    if (caller_cpu < 0 || caller_cpu >= CPU_SETSIZE ||
        sched_getcpu() != caller_cpu ||
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) !=
            0 ||
        CPU_COUNT(&saved_) < 2 || !CPU_ISSET(caller_cpu, &saved_)) {
      return;
    }
    cpu_set_t narrowed = saved_;
    CPU_CLR(caller_cpu, &narrowed);
    narrowed_ = pthread_setaffinity_np(pthread_self(), sizeof(narrowed),
                                       &narrowed) == 0;
  }
  LeaveCallerCpu(const LeaveCallerCpu&) = delete;
  LeaveCallerCpu& operator=(const LeaveCallerCpu&) = delete;
  ~LeaveCallerCpu() {
    if (narrowed_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }

 private:
  cpu_set_t saved_{};
  bool narrowed_ = false;
};
#else
int current_cpu() { return -1; }

struct LeaveCallerCpu {
  explicit LeaveCallerCpu(int /*caller_cpu*/) {}
};
#endif

}  // namespace

std::size_t configured_thread_count() {
  if (const char* env = std::getenv("CROWDRANK_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// All mutable pool state lives behind one mutex; the only lock-free paths
/// are the per-lane work-stealing intervals (and the abort flag), which
/// lanes hammer while a region is active.
struct ThreadPool::State {
  /// Serializes whole regions: only one external thread may have a job
  /// posted at a time; concurrent callers queue up here. Always taken
  /// before `mutex`, never while holding it.
  Mutex region_mutex CR_ACQUIRED_BEFORE(mutex);
  Mutex mutex;
  CondVar work_ready;
  CondVar work_done;
  std::vector<std::thread> workers CR_GUARDED_BY(mutex);

  // Current region, valid while generation is odd-stepped by run().
  std::uint64_t generation CR_GUARDED_BY(mutex) = 0;
  const std::function<void(std::size_t)>* task CR_GUARDED_BY(mutex) =
      nullptr;
  /// The region caller's trace sink; each worker lane installs it while
  /// it drains, so tasks record where the caller's run records.
  trace::TraceSink* sink CR_GUARDED_BY(mutex) = nullptr;
  /// The CPU the region's caller ran on when it posted the region (-1
  /// where unknown); worker lanes leave it (LeaveCallerCpu).
  int caller_cpu CR_GUARDED_BY(mutex) = -1;
  std::size_t active_workers CR_GUARDED_BY(mutex) = 0;
  bool stopping CR_GUARDED_BY(mutex) = false;

  /// Per-lane work-stealing ranges (lane 0 = region caller, lane i + 1 =
  /// worker i). (Re)allocated under `mutex` during region setup when the
  /// worker count changed; the array is stable while a region is live.
  std::unique_ptr<std::atomic<std::uint64_t>[]> lanes;
  /// Written during region setup (workers parked, region_mutex held);
  /// lanes read it while draining, hence atomic rather than mutex-guarded.
  std::atomic<std::size_t> lane_count{0};
  /// Raised by the first failing task; lanes observe it and stop claiming.
  std::atomic<bool> abort{false};

  // Nanoseconds every lane spent draining the current region; only
  // maintained while a trace sink is active (see drain_timed).
  std::atomic<std::uint64_t> region_busy_ns{0};

  // First exception thrown by any task of the current region.
  std::exception_ptr error CR_GUARDED_BY(mutex);
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(configured_thread_count());
  return pool;
}

ThreadPool::ThreadPool(std::size_t count)
    : state_(std::make_unique<State>()) {
  spawn_workers(count == 0 ? 0 : count - 1);
}

ThreadPool::~ThreadPool() { stop_workers(); }

std::size_t ThreadPool::thread_count() const {
  MutexLock lock(state_->mutex);
  return state_->workers.size() + 1;
}

bool ThreadPool::in_parallel_region() { return t_in_region; }

void ThreadPool::spawn_workers(std::size_t worker_count) {
  MutexLock lock(state_->mutex);
  state_->workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    // Lane 0 belongs to the region caller; worker i drains lane i + 1.
    state_->workers.emplace_back([this, lane = i + 1] { worker_loop(lane); });
  }
}

void ThreadPool::stop_workers() {
  // Move the handles out under the lock so thread_count() (which reads
  // workers.size() under the same lock) never races the join/clear below;
  // join outside the lock so exiting workers can take it on their way out.
  std::vector<std::thread> joined;
  {
    MutexLock lock(state_->mutex);
    state_->stopping = true;
    joined = std::move(state_->workers);
    state_->workers.clear();
  }
  state_->work_ready.notify_all();
  for (std::thread& w : joined) {
    w.join();
  }
  MutexLock lock(state_->mutex);
  state_->stopping = false;
}

void ThreadPool::resize(std::size_t count) {
  CR_EXPECTS(count >= 1, "thread pool needs at least one lane");
  CR_EXPECTS(!t_in_region,
             "cannot resize the pool from inside a parallel region");
  // Wait out any region another thread has in flight before re-spawning.
  MutexLock region(state_->region_mutex);
  stop_workers();
  spawn_workers(count - 1);
}

/// Runs drain_tasks, accumulating the lane's busy time into the region
/// counter when a trace sink is active (zero extra work otherwise).
void ThreadPool::drain_timed(const std::function<void(std::size_t)>& task,
                             std::size_t lane) {
  if (trace::sink() == nullptr) {
    drain_tasks(task, lane);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  drain_tasks(task, lane);
  const auto busy = std::chrono::steady_clock::now() - t0;
  state_->region_busy_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
              .count()),
      std::memory_order_relaxed);
}

/// One lane of the work-stealing drain. The lane pops the front of its own
/// interval until it runs dry, then steals the upper half of the fullest
/// other lane's remainder and continues. Returns when every lane reads
/// empty (intervals claimed by an in-flight thief are finished by that
/// thief before it returns) or the region aborts on a task exception.
/// Determinism is unaffected by the schedule: tasks write disjoint outputs
/// and reductions combine in task-index order after the region.
void ThreadPool::drain_tasks(const std::function<void(std::size_t)>& task,
                             std::size_t lane) {
  State& s = *state_;
  const std::size_t lane_count =
      s.lane_count.load(std::memory_order_acquire);
  std::atomic<std::uint64_t>* lanes = s.lanes.get();
  const auto run_one = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      MutexLock lock(s.mutex);
      if (!s.error) {
        s.error = std::current_exception();
      }
      // The region is already failed: tell every lane to stop claiming.
      s.abort.store(true, std::memory_order_release);
    }
  };
  while (!s.abort.load(std::memory_order_acquire)) {
    // Fast path: pop the front of our own lane.
    std::uint64_t pack = lanes[lane].load(std::memory_order_acquire);
    if (range_next(pack) < range_end(pack)) {
      const std::uint64_t popped =
          pack_range(std::uint64_t{range_next(pack)} + 1, range_end(pack));
      if (lanes[lane].compare_exchange_weak(pack, popped,
                                            std::memory_order_acq_rel)) {
        run_one(range_next(pack));
      }
      continue;
    }
    // Own lane dry: steal the upper half of the fullest victim. Preferring
    // the largest remainder keeps steal counts logarithmic.
    std::size_t victim = lane_count;
    std::uint64_t victim_pack = 0;
    std::uint32_t best_remaining = 0;
    for (std::size_t v = 0; v < lane_count; ++v) {
      if (v == lane) {
        continue;
      }
      const std::uint64_t p = lanes[v].load(std::memory_order_acquire);
      if (range_next(p) < range_end(p) &&
          range_end(p) - range_next(p) > best_remaining) {
        best_remaining = range_end(p) - range_next(p);
        victim = v;
        victim_pack = p;
      }
    }
    if (victim == lane_count) {
      return;  // every lane reads empty — nothing left to claim
    }
    const std::uint32_t v_next = range_next(victim_pack);
    const std::uint32_t v_end = range_end(victim_pack);
    const std::uint32_t take = (v_end - v_next + 1) / 2;
    if (lanes[victim].compare_exchange_weak(
            victim_pack, pack_range(v_next, v_end - take),
            std::memory_order_acq_rel)) {
      // [v_end - take, v_end) is ours; park it in our empty lane (plain
      // store: only the owner installs into a lane, and CAS-transitions
      // require a non-empty interval, so nothing races the install).
      lanes[lane].store(pack_range(std::uint64_t{v_end} - take, v_end),
                        std::memory_order_release);
    }
  }
}

void ThreadPool::worker_loop(std::size_t lane) {
  State& s = *state_;
  std::uint64_t seen_generation = 0;
  MutexLock lock(s.mutex);
  while (true) {
    // Explicit re-check loop (not a wait predicate): the guarded reads sit
    // inside the locked region TSA analyzes, where a lambda would not be.
    while (!s.stopping && s.generation == seen_generation) {
      s.work_ready.wait(s.mutex);
    }
    if (s.stopping) {
      return;
    }
    seen_generation = s.generation;
    if (s.task == nullptr) {
      // Woken by a generation bump whose region already fully drained — a
      // freshly spawned worker (post-resize) starts with seen_generation 0
      // and observes old increments. Sync and re-wait; this worker was not
      // part of that region, so active_workers must not be touched.
      continue;
    }
    const auto* task = s.task;
    trace::TraceSink* const sink = s.sink;
    const int caller_cpu = s.caller_cpu;
    lock.unlock();

    {
      const LeaveCallerCpu leave(caller_cpu);
      const trace::ScopedSink region_sink(sink);
      t_in_region = true;
      drain_timed(*task, lane);
      t_in_region = false;
    }

    lock.lock();
    if (--s.active_workers == 0) {
      s.work_done.notify_all();
    }
  }
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  if (count == 0) {
    return;
  }
  State& s = *state_;
  // Serial pool, single task, or nested call: run inline. Exceptions
  // propagate directly.
  bool inline_run = t_in_region || count == 1;
  if (!inline_run) {
    MutexLock lock(s.mutex);
    inline_run = s.workers.empty();
  }
  if (inline_run) {
    for (std::size_t i = 0; i < count; ++i) {
      task(i);
    }
    return;
  }

  CR_EXPECTS(count <= 0xffffffffu,
             "parallel region task count must fit in 32 bits");
  MutexLock region(s.region_mutex);
  // The caller's sink: every lane drains under it, and the region summary
  // below lands in it.
  trace::TraceSink* ts = trace::sink();
  const auto region_start = std::chrono::steady_clock::now();
  {
    MutexLock lock(s.mutex);
    s.task = &task;
    s.sink = ts;
    s.caller_cpu = current_cpu();
    const std::size_t lanes_needed = s.workers.size() + 1;
    if (s.lane_count.load(std::memory_order_relaxed) != lanes_needed) {
      s.lanes =
          std::make_unique<std::atomic<std::uint64_t>[]>(lanes_needed);
      s.lane_count.store(lanes_needed, std::memory_order_release);
    }
    // Even contiguous slices; imbalance is the thieves' problem.
    for (std::size_t l = 0; l < lanes_needed; ++l) {
      s.lanes[l].store(pack_range(l * count / lanes_needed,
                                  (l + 1) * count / lanes_needed),
                       std::memory_order_relaxed);
    }
    s.abort.store(false, std::memory_order_relaxed);
    s.error = nullptr;
    s.active_workers = s.workers.size();
    s.region_busy_ns.store(0, std::memory_order_relaxed);
    ++s.generation;
  }
  s.work_ready.notify_all();

  t_in_region = true;
  drain_timed(task, 0);
  t_in_region = false;

  MutexLock lock(s.mutex);
  while (s.active_workers != 0) {
    s.work_done.wait(s.mutex);
  }
  s.task = nullptr;
  s.sink = nullptr;
  const std::size_t lanes = s.workers.size() + 1;
  if (ts != nullptr) {
    // Region summary: task throughput plus how much of the lanes' combined
    // wall time was spent idle (waiting for stragglers or wakeup latency).
    const double wall_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - region_start)
            .count();
    const double busy_us =
        static_cast<double>(
            s.region_busy_ns.load(std::memory_order_relaxed)) *
        1e-3;
    metrics::Registry& m = ts->metrics();
    m.counter("pool.regions").add(1);
    m.counter("pool.tasks").add(count);
    m.counter("pool.busy_us").add(static_cast<std::uint64_t>(busy_us));
    const double idle_us =
        wall_us * static_cast<double>(lanes) - busy_us;
    m.counter("pool.idle_us")
        .add(static_cast<std::uint64_t>(idle_us > 0.0 ? idle_us : 0.0));
    m.gauge("pool.threads").set(static_cast<double>(lanes));
    m.histogram("pool.region_us").observe(wall_us);
  }
  if (s.error) {
    std::exception_ptr error = s.error;
    s.error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

InlineRegion::InlineRegion() : previous_(t_in_region) {
  t_in_region = true;
}

InlineRegion::~InlineRegion() { t_in_region = previous_; }

std::size_t thread_count() { return ThreadPool::instance().thread_count(); }

std::uint64_t task_stream_seed(std::uint64_t base,
                               std::uint64_t task) noexcept {
  // SplitMix64 finalizer over base offset by (task + 1) gammas: adjacent
  // task indices land in statistically independent streams, and task 0 is
  // offset too so task_stream_seed(s, 0) != splitmix(s) collisions with
  // other derivations of the same base stay unlikely.
  std::uint64_t z = base + (task + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void set_thread_count(std::size_t count) {
  ThreadPool::instance().resize(count);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) {
    return;
  }
  if (grain == 0) {
    grain = 1;
  }
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  ThreadPool& pool = ThreadPool::instance();
  if (chunks == 1 || ThreadPool::in_parallel_region()) {
    body(begin, end);
    return;
  }
  pool.run(chunks, [&](std::size_t c) {
    const std::size_t b = begin + c * grain;
    const std::size_t e = b + grain < end ? b + grain : end;
    body(b, e);
  });
}

}  // namespace crowdrank
