// Structured tracing: RAII spans forming a per-run span tree, a metrics
// registry (util/metrics.hpp), and two machine-readable exporters.
//
// Model
//  * A `TraceSink` collects everything for one run: spans (name, wall
//    time, thread, parent, key=value attributes) plus the counters /
//    gauges / histograms / series of its `metrics::Registry`.
//  * Instrumented code never holds a sink directly; it consults the
//    calling thread's *active* sink (`trace::sink()`, a thread-local
//    pointer, null by default). `ScopedSink` is the only installer: a
//    caller wraps a run in one, and the run records into that sink
//    whatever else runs concurrently on other threads. `ThreadPool::run`
//    hands the caller's sink to its worker lanes for the region.
//  * Each installed sink gets its own span stack, so a span's parent is
//    always a span of the same sink: a `ScopedSink` opened inside a span
//    starts a fresh tree.
//  * With no active sink every primitive is a no-op that performs **no
//    allocation and no synchronization** beyond one thread-local load —
//    tests/util/test_trace.cpp pins the zero-allocation property, and
//    bench/perf_pipeline is the <2% overhead regression anchor.
//  * Tracing never perturbs results: instrumentation only reads the data
//    being computed and never touches RNG state, so traced and untraced
//    runs are bitwise-identical (tests/core/test_determinism.cpp).
//
// Exporters
//  * `write_chrome_trace()` — Chrome trace-event JSON (open in
//    chrome://tracing or https://ui.perfetto.dev): spans as complete "X"
//    events, series as counter "C" tracks.
//  * `RunReport` — a flat report JSON: build info stamp, config echo
//    notes, and per-run spans/phases/counters/gauges/histograms/series.
//    A run's phases are the per-name totals of its root spans' children
//    (the four steps under `infer`), or figures a bench times itself.
//    The CLI's `--metrics` and bench/perf_pipeline both emit this format.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace crowdrank::trace {

/// Span attribute value. Doubles keep full precision in the JSON output;
/// bools/ints stay typed rather than stringified.
using AttrValue = std::variant<std::int64_t, double, bool, std::string>;

/// One finished (or still-open) span as stored by the sink.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< offset from the sink's epoch
  double dur_us = 0.0;    ///< 0 while the span is still open
  std::uint32_t tid = 0;  ///< metrics::thread_ordinal() of the opener
  /// Index of the parent span in the sink's span list, or kNoParent for a
  /// root. Parentage follows the opener thread's span stack for the sink.
  std::size_t parent = kNoParent;
  std::vector<std::pair<std::string, AttrValue>> attrs;

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
};

/// Collects one run's spans and metrics. Thread-safe; create on the stack,
/// install with `ScopedSink`, export after the run.
class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  /// Microseconds since this sink was constructed (its trace epoch).
  double now_us() const;

  /// Snapshot of all spans recorded so far, in open order.
  std::vector<SpanRecord> spans() const;

  /// Chrome trace-event JSON (complete events + counter tracks).
  void write_chrome_trace(std::ostream& os) const;

  /// Appends `key = value` to every span recorded under `root` (walking
  /// parent chains; `root` itself is not annotated). Lets a scheduler
  /// stamp a whole subtree with its work-item identity after the fact —
  /// the service tags each job's spans with the job id and outcome so
  /// Chrome traces stay per-job attributable when executors interleave.
  void annotate_descendants(std::size_t root, const char* key,
                            AttrValue value);

 private:
  friend class Span;
  std::size_t open_span(const char* name, std::size_t parent);
  void close_span(std::size_t index);
  void span_attr(std::size_t index, const char* key, AttrValue value);

  std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mutex_;
  std::vector<SpanRecord> spans_ CR_GUARDED_BY(mutex_);
  // Internally synchronized (its own mutex + sharded atomics); no guard.
  metrics::Registry metrics_;
};

/// The calling thread's active sink (null by default). One thread-local
/// load: this is the only cost instrumentation pays when tracing is off.
TraceSink* sink() noexcept;

/// RAII installer of the calling thread's active sink, with an empty span
/// stack of its own; restores the previous sink and stack on scope exit.
/// `ScopedSink(nullptr)` turns tracing off for the scope.
class ScopedSink {
 public:
  explicit ScopedSink(TraceSink* s) noexcept;
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
  ~ScopedSink();

 private:
  TraceSink* previous_sink_;
  std::size_t previous_span_;
};

/// RAII span. No-op (no allocation, no locks) when no sink is active at
/// construction. Spans nest per thread and sink: a span opened while
/// another span of the same thread and sink is open becomes its child.
class Span {
 public:
  /// `name` must outlive the constructor call (string literals in
  /// practice); it is copied into the sink only when tracing is active.
  explicit Span(const char* name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// True when this span is being recorded.
  bool active() const noexcept { return sink_ != nullptr; }
  /// This span's index in its sink's span list (meaningful when active).
  std::size_t index() const noexcept { return index_; }

  void set_attr(const char* key, std::int64_t value);
  void set_attr(const char* key, std::uint64_t value);
  void set_attr(const char* key, double value);
  void set_attr(const char* key, bool value);
  void set_attr(const char* key, const char* value);
  void set_attr(const char* key, const std::string& value);

 private:
  TraceSink* sink_ = nullptr;
  std::size_t index_ = 0;
  std::size_t parent_ = SpanRecord::kNoParent;
};

/// Metric handles on the active sink, or nullptr when tracing is off.
/// Idiom: resolve once at function/stage entry, then guard updates with
/// `if (h) h->...`. The name-lookup cost (one mutex + map) is paid only
/// while tracing. Guard every handle on its own, or take one `sink()`
/// snapshot for several updates.
metrics::Counter* counter(const char* name);
metrics::Gauge* gauge(const char* name);
metrics::Histogram* histogram(const char* name);
metrics::Series* series(const char* name);

/// Pushes (now_us, x, y) onto the named series of the active sink; no-op
/// when tracing is off.
void push_series(metrics::Series* s, double x, double y);

// ---------------------------------------------------------------------
// RunReport: the flat machine-readable report exporter.
// ---------------------------------------------------------------------

/// JSON-ish scalar for config echo notes.
using NoteValue = std::variant<std::int64_t, double, bool, std::string>;

/// Builder for the run-report JSON. Stamped with build info (generated
/// version.hpp) at construction; `note()` echoes config scalars;
/// `add_run()` opens a labeled run section that can capture a TraceSink
/// (spans, metrics and the phase totals they imply) and phase times a
/// caller measured itself.
class RunReport {
 public:
  class Run {
   public:
    explicit Run(std::string label) : label_(std::move(label)) {}

    void note(const std::string& key, NoteValue value);
    /// Snapshots the sink's spans, counters, gauges, histograms, series,
    /// and adds each root span's children to the phases by name.
    void capture(const TraceSink& sink);
    /// Adds `ms` to the named phase, kept in first-seen order.
    void phase(const std::string& name, double ms);

   private:
    friend class RunReport;
    std::string label_;
    std::vector<std::pair<std::string, NoteValue>> notes_;
    std::vector<std::pair<std::string, double>> phases_ms_;
    std::vector<SpanRecord> spans_;
    std::vector<std::pair<std::string, std::uint64_t>> counters_;
    std::vector<std::pair<std::string, double>> gauges_;
    std::vector<std::pair<std::string, metrics::Histogram::Snapshot>>
        histograms_;
    std::vector<std::pair<std::string, std::vector<metrics::Series::Point>>>
        series_;
  };

  explicit RunReport(std::string title);

  /// Top-level config echo (kept in insertion order).
  void note(const std::string& key, NoteValue value);

  /// Opens a new run section; the reference stays valid for the report's
  /// lifetime.
  Run& add_run(std::string label);

  void write(std::ostream& os) const;
  /// Writes to `path`; returns false (and leaves no partial file promise)
  /// on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::string title_;
  std::vector<std::pair<std::string, NoteValue>> notes_;
  std::vector<std::unique_ptr<Run>> runs_;
};

}  // namespace crowdrank::trace
