// Parallel execution engine: a lazily-initialized process-wide thread pool
// with chunked `parallel_for` / `parallel_reduce` helpers.
//
// Design goals, in order:
//  1. *Determinism.* Results must be bitwise-identical at any thread count.
//     Chunk boundaries depend only on the caller-supplied grain (never on
//     the thread count), chunks are scheduled by work-stealing but write
//     disjoint outputs, and `parallel_reduce` combines per-chunk partials
//     sequentially in chunk-index order. Callers keep the guarantee by
//     making each chunk's computation independent of which thread runs it.
//  2. *Zero cost when serial.* With one thread (or inside a nested region)
//     every helper degenerates to a plain inline loop — no allocation, no
//     synchronization — so `CROWDRANK_THREADS=1` reproduces the historical
//     single-threaded behavior exactly.
//  3. *No oversubscription.* Nested parallel regions (a pool worker calling
//     `parallel_for`) run inline on the calling worker; the outermost
//     region owns the pool.
//
// Thread count resolution: `CROWDRANK_THREADS` env var if set to a positive
// integer, otherwise `std::thread::hardware_concurrency()`. Tests and
// benches may override at runtime with `set_thread_count()`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace crowdrank {

/// Thread count the pool is created with: `CROWDRANK_THREADS` when set to a
/// positive integer, else `std::thread::hardware_concurrency()` (min 1).
std::size_t configured_thread_count();

/// Process-wide pool. `instance()` lazily spawns `configured_thread_count()
/// - 1` workers; the caller of a parallel region always participates, so
/// `thread_count() == workers + 1`.
class ThreadPool {
 public:
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  std::size_t thread_count() const;

  /// Joins all workers and respawns `count - 1` (count >= 1). Must not be
  /// called from inside a parallel region.
  void resize(std::size_t count);

  /// Runs `task(0) .. task(count - 1)` across the pool and the calling
  /// thread; blocks until all complete. Tasks are distributed by
  /// work-stealing: each lane starts with an even contiguous slice and
  /// idle lanes steal the upper half of the fullest lane's remainder, so
  /// callers must not depend on task->thread mapping. The first exception
  /// thrown by any task is rethrown on the caller after the region drains.
  /// Nested calls (from a pool worker) run inline. On Linux a worker lane
  /// woken onto the caller's CPU moves off it for the region, so the
  /// lanes run side by side instead of queueing on one CPU.
  void run(std::size_t count, const std::function<void(std::size_t)>& task);

  /// True when the current thread is executing inside a parallel region.
  static bool in_parallel_region();

 private:
  explicit ThreadPool(std::size_t count);
  void spawn_workers(std::size_t worker_count);
  void stop_workers();
  void worker_loop(std::size_t lane);
  void drain_tasks(const std::function<void(std::size_t)>& task,
                   std::size_t lane);
  void drain_timed(const std::function<void(std::size_t)>& task,
                   std::size_t lane);

  struct State;
  std::unique_ptr<State> state_;  // pimpl; State is completed in the .cpp
};

/// Convenience accessors for the global pool.
std::size_t thread_count();
void set_thread_count(std::size_t count);

/// Derives a well-mixed 64-bit seed for per-task RNG streams: task `t` of a
/// fan-out seeded with `base` runs on `Rng(task_stream_seed(base, t))`.
/// Pure SplitMix64-style mixing of (base, task) — no global state, no
/// clock — so the stream a task sees depends only on the caller's seed and
/// the task index, never on the thread count or execution schedule. This
/// is how SAPS keeps its parallel restarts bitwise-deterministic.
std::uint64_t task_stream_seed(std::uint64_t base,
                               std::uint64_t task) noexcept;

/// Scoped opt-out of the global pool for the current thread: while an
/// InlineRegion is alive, every `parallel_for` / `parallel_reduce` /
/// `ThreadPool::run` issued from this thread executes inline, exactly as
/// inside a nested region. The serving layer (src/service) holds one per
/// job-executor thread so concurrent jobs each run on their own lane
/// instead of serializing on the pool's region lock — job-level
/// parallelism replaces kernel-level parallelism. Nestable; restores the
/// previous state on destruction.
class InlineRegion {
 public:
  InlineRegion();
  InlineRegion(const InlineRegion&) = delete;
  InlineRegion& operator=(const InlineRegion&) = delete;
  ~InlineRegion();

 private:
  bool previous_;
};

/// Chunked parallel loop over [begin, end): `body(b, e)` is invoked for
/// consecutive half-open sub-ranges of at most `grain` elements. Chunk
/// boundaries depend only on `grain`, so element-disjoint bodies produce
/// identical results at any thread count. Runs inline when the range fits
/// in one chunk or the pool is serial.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Deterministic chunked reduction over [begin, end): `chunk_fn(b, e)`
/// returns the partial for one sub-range; partials are combined with
/// `combine(acc, partial)` sequentially in ascending chunk order starting
/// from `init`. Because chunk boundaries and combine order are independent
/// of the thread count, the result is bitwise-identical at any thread count
/// whenever `chunk_fn` itself is.
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T init, ChunkFn&& chunk_fn, CombineFn&& combine) {
  if (end <= begin) {
    return init;
  }
  if (grain == 0) {
    grain = 1;
  }
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks == 1) {
    return combine(init, chunk_fn(begin, end));
  }
  std::vector<T> partial(chunks, init);
  parallel_for(0, chunks, 1, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t b = begin + c * grain;
      const std::size_t e = b + grain < end ? b + grain : end;
      partial[c] = chunk_fn(b, e);
    }
  });
  T acc = init;
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(acc, partial[c]);
  }
  return acc;
}

}  // namespace crowdrank
