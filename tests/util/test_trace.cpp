// Tracing/metrics layer tests: span tree shape, per-thread sinks and their
// handoff to pool lanes, sharded-counter merges under the thread pool,
// exporter JSON well-formedness (checked with a small recursive-descent
// parser below), and the zero-allocation guarantee of the disabled-sink
// path (checked with the global operator new override at the bottom of
// this file — which is why this suite is its own binary).
//
// The allocator overrides route through malloc/free, which GCC's inliner
// misreads as new/free mismatches at the use sites — a false positive for
// replaced global allocators, silenced file-wide here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/build_info.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace {

/// Global allocation counter fed by the operator new overrides below.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

namespace crowdrank {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser: enough to validate and round-trip the exporters'
// output without external dependencies.
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::runtime_error("trailing garbage after JSON value");
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::String;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return JsonValue{};
    }
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) throw std::runtime_error("unclosed string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw std::runtime_error("bad \\u escape");
            }
            // Validated but folded to '?': the exporters only \u-escape
            // control characters, which none of these tests mint.
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              if (!((h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                    (h >= 'A' && h <= 'F'))) {
                throw std::runtime_error("bad \\u escape digit");
              }
            }
            out += '?';
            break;
          }
          default:
            throw std::runtime_error("unknown escape");
        }
        continue;
      }
      out += c;
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
      v.boolean = false;
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("expected a number");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        throw std::runtime_error("bad literal");
      }
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(configured_thread_count()); }

  // Every test starts with no sink on this thread, and whatever it
  // installs is gone once it ends.
  const trace::ScopedSink no_sink_{nullptr};
};

TEST_F(TraceTest, SpansNestUnderTheEnclosingSpanOfTheSameThread) {
  trace::TraceSink sink;
  {
    trace::ScopedSink scoped(&sink);
    trace::Span outer("outer");
    {
      trace::Span middle("middle");
      trace::Span inner("inner");
    }
    trace::Span sibling("sibling");
  }
  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Open order: outer, middle, inner, sibling.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, trace::SpanRecord::kNoParent);
  EXPECT_EQ(spans[1].name, "middle");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].name, "inner");
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, 0u);
  for (const auto& s : spans) {
    EXPECT_GE(s.dur_us, 0.0) << s.name;
    EXPECT_GE(s.start_us, 0.0) << s.name;
  }
  // A child cannot start before its parent.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_GE(spans[2].start_us, spans[1].start_us);
}

TEST_F(TraceTest, SpanAttributesAreRecordedWithTheirTypes) {
  trace::TraceSink sink;
  {
    trace::ScopedSink scoped(&sink);
    trace::Span span("attrs");
    span.set_attr("count", std::uint64_t{42});
    span.set_attr("ratio", 0.5);
    span.set_attr("ok", true);
    span.set_attr("label", "hello");
  }
  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 4u);
  EXPECT_EQ(spans[0].attrs[0].first, "count");
  EXPECT_EQ(std::get<std::int64_t>(spans[0].attrs[0].second), 42);
  EXPECT_EQ(std::get<double>(spans[0].attrs[1].second), 0.5);
  EXPECT_EQ(std::get<bool>(spans[0].attrs[2].second), true);
  EXPECT_EQ(std::get<std::string>(spans[0].attrs[3].second), "hello");
}

TEST_F(TraceTest, AScopedSinkOpenedInsideASpanStartsItsOwnTree) {
  trace::TraceSink outer_sink;
  trace::TraceSink inner_sink;
  {
    const trace::ScopedSink outer_scope(&outer_sink);
    trace::Span outer("outer");
    {
      const trace::ScopedSink inner_scope(&inner_sink);
      trace::Span first("first");
      trace::Span nested("nested");
    }
    trace::Span after("after");
  }
  const auto inner = inner_sink.spans();
  ASSERT_EQ(inner.size(), 2u);
  EXPECT_EQ(inner[0].name, "first");
  EXPECT_EQ(inner[0].parent, trace::SpanRecord::kNoParent);
  EXPECT_EQ(inner[1].parent, 0u);
  // The outer tree is untouched: its open span is still the parent once
  // the inner sink is gone.
  const auto outer = outer_sink.spans();
  ASSERT_EQ(outer.size(), 2u);
  EXPECT_EQ(outer[0].name, "outer");
  EXPECT_EQ(outer[0].parent, trace::SpanRecord::kNoParent);
  EXPECT_EQ(outer[1].name, "after");
  EXPECT_EQ(outer[1].parent, 0u);
}

TEST_F(TraceTest, PoolLanesRecordIntoTheCallersSinkAndNoOtherThreadSeesIt) {
  set_thread_count(4);
  trace::TraceSink sink;
  constexpr std::size_t kTasks = 200;
  std::vector<std::thread::id> ran_on(kTasks);

  // A second thread without a sink watches for the whole region.
  std::atomic<bool> region_done{false};
  std::atomic<bool> observer_started{false};
  std::atomic<bool> observer_saw_a_sink{false};
  std::thread observer([&] {
    observer_started.store(true);
    while (!region_done.load()) {
      if (trace::sink() != nullptr) observer_saw_a_sink.store(true);
    }
  });
  while (!observer_started.load()) std::this_thread::yield();
  {
    const trace::ScopedSink scoped(&sink);
    parallel_for(0, kTasks, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        if (metrics::Counter* c = trace::counter("test.tasks")) c->add(1);
        ran_on[i] = std::this_thread::get_id();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  region_done.store(true);
  observer.join();

  EXPECT_EQ(sink.metrics().counter("test.tasks").value(), kTasks);
  EXPECT_FALSE(observer_saw_a_sink.load());
  // The region really ran on worker lanes, not only on the caller.
  std::sort(ran_on.begin(), ran_on.end());
  EXPECT_GT(std::unique(ran_on.begin(), ran_on.end()) - ran_on.begin(), 1);
  // The lanes gave the sink back: after the region no thread has it.
  EXPECT_EQ(trace::sink(), nullptr);
}

// ---------------------------------------------------------------------
// Metrics registry under the pool
// ---------------------------------------------------------------------

TEST_F(TraceTest, CounterMergesShardsCorrectlyAcrossPoolThreads) {
  set_thread_count(4);
  trace::TraceSink sink;
  {
    trace::ScopedSink scoped(&sink);
    metrics::Counter& c = sink.metrics().counter("test.adds");
    parallel_for(0, 10000, 16, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        c.add(1);
      }
    });
  }
  EXPECT_EQ(sink.metrics().counter("test.adds").value(), 10000u);
}

TEST_F(TraceTest, HistogramMergesCountSumMinMaxAcrossPoolThreads) {
  set_thread_count(4);
  trace::TraceSink sink;
  {
    trace::ScopedSink scoped(&sink);
    metrics::Histogram& h = sink.metrics().histogram("test.obs");
    parallel_for(1, 1001, 8, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        h.observe(static_cast<double>(i));
      }
    });
  }
  const auto snap = sink.metrics().histogram("test.obs").snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.sum, 500500.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 1000u);
}

TEST_F(TraceTest, RegistryReturnsTheSameInstrumentForTheSameName) {
  trace::TraceSink sink;
  metrics::Counter& a = sink.metrics().counter("same");
  metrics::Counter& b = sink.metrics().counter("same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST_F(TraceTest, SeriesKeepsPointsInPushOrder) {
  trace::TraceSink sink;
  trace::ScopedSink scoped(&sink);
  metrics::Series* s = trace::series("test.series");
  ASSERT_NE(s, nullptr);
  trace::push_series(s, 1.0, 10.0);
  trace::push_series(s, 2.0, 20.0);
  trace::push_series(s, 3.0, 30.0);
  const auto points = s->points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].x, 1.0);
  EXPECT_EQ(points[2].y, 30.0);
  EXPECT_LE(points[0].t_us, points[2].t_us);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST_F(TraceTest, ChromeTraceExportIsValidJsonWithTheRecordedSpans) {
  trace::TraceSink sink;
  {
    trace::ScopedSink scoped(&sink);
    trace::Span outer("outer \"quoted\" name");
    trace::Span inner("inner");
    sink.metrics().counter("events").add(2);
    trace::push_series(trace::series("load"), 1.0, 0.5);
  }
  std::ostringstream os;
  sink.write_chrome_trace(os);
  const JsonValue root = parse_json(os.str());
  ASSERT_EQ(root.kind, JsonValue::Kind::Object);
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::Array);

  std::size_t complete = 0;
  std::size_t counters = 0;
  bool saw_quoted = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "X") {
      ++complete;
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      if (e.find("name")->str == "outer \"quoted\" name") saw_quoted = true;
    } else if (ph->str == "C") {
      ++counters;
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(counters, 1u);  // one point on one series
  EXPECT_TRUE(saw_quoted) << "string escaping must round-trip";
}

TEST_F(TraceTest, RunReportRoundTripsBuildInfoNotesAndMetrics) {
  trace::TraceSink sink;
  {
    trace::ScopedSink scoped(&sink);
    trace::Span root("infer");
    {
      trace::Span step("step3_propagation");
      trace::Span inner("propagation_inner");  // a grandchild: no phase
      sink.metrics().counter("work.items").add(7);
      sink.metrics().gauge("work.threads").set(4.0);
      sink.metrics().histogram("work.us").observe(123.0);
      trace::push_series(trace::series("work.delta"), 1.0, 0.25);
    }
    { trace::Span again("step3_propagation"); }
  }

  trace::RunReport report("test report");
  report.note("objects", std::int64_t{60});
  report.note("label", "alpha");
  report.note("exact", 0.125);
  report.note("flag", true);
  trace::RunReport::Run& run = report.add_run("main");
  run.note("accuracy", 0.75);
  run.capture(sink);
  run.phase("measured_elsewhere", 2.5);

  std::ostringstream os;
  report.write(os);
  const JsonValue root = parse_json(os.str());

  ASSERT_EQ(root.find("report")->str, "test report");
  const JsonValue* build = root.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->find("version")->str, build_info().version);
  EXPECT_EQ(build->find("git")->str, build_info().git_revision);
  EXPECT_FALSE(build->find("compiler")->str.empty());

  const JsonValue* notes = root.find("notes");
  ASSERT_NE(notes, nullptr);
  EXPECT_EQ(notes->find("objects")->number, 60.0);
  EXPECT_EQ(notes->find("label")->str, "alpha");
  EXPECT_EQ(notes->find("exact")->number, 0.125);
  EXPECT_EQ(notes->find("flag")->boolean, true);

  const JsonValue* runs = root.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue& main_run = runs->array[0];
  EXPECT_EQ(main_run.find("label")->str, "main");
  EXPECT_EQ(main_run.find("notes")->find("accuracy")->number, 0.75);
  EXPECT_EQ(main_run.find("counters")->find("work.items")->number, 7.0);
  EXPECT_EQ(main_run.find("gauges")->find("work.threads")->number, 4.0);
  const JsonValue* hist = main_run.find("histograms")->find("work.us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->number, 1.0);
  EXPECT_EQ(hist->find("min")->number, 123.0);
  const JsonValue* series = main_run.find("series")->find("work.delta");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->array.size(), 1u);
  EXPECT_EQ(series->array[0].array[0].number, 1.0);
  EXPECT_EQ(series->array[0].array[1].number, 0.25);
  // Phases are the root's children, totalled by name, then the figure
  // the caller added itself.
  const auto recorded = sink.spans();
  ASSERT_EQ(recorded.size(), 4u);
  const JsonValue* phases = main_run.find("phases_ms");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->object.size(), 2u);
  EXPECT_EQ(phases->object[0].first, "step3_propagation");
  EXPECT_DOUBLE_EQ(phases->object[0].second.number,
                   (recorded[1].dur_us + recorded[3].dur_us) * 1e-3);
  EXPECT_EQ(phases->object[1].first, "measured_elsewhere");
  EXPECT_EQ(phases->object[1].second.number, 2.5);
  const JsonValue* spans = main_run.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 4u);
  EXPECT_EQ(spans->array[0].find("name")->str, "infer");
  EXPECT_EQ(spans->array[0].find("parent")->number, -1.0);
  EXPECT_EQ(spans->array[1].find("name")->str, "step3_propagation");
  EXPECT_EQ(spans->array[1].find("parent")->number, 0.0);
}

TEST_F(TraceTest, DoubleFormattingRoundTripsFullPrecision) {
  trace::TraceSink sink;
  {
    trace::ScopedSink scoped(&sink);
    trace::push_series(trace::series("precise"), 1.0,
                       0.1234567890123456789);
  }
  trace::RunReport report("precision");
  report.add_run("r").capture(sink);
  std::ostringstream os;
  report.write(os);
  const JsonValue root = parse_json(os.str());
  const JsonValue* series = root.find("runs")->array[0].find("series");
  const double got = series->find("precise")->array[0].array[1].number;
  EXPECT_EQ(got, 0.1234567890123456789);  // %.17g is lossless for doubles
}

// ---------------------------------------------------------------------
// Disabled-sink path
// ---------------------------------------------------------------------

TEST_F(TraceTest, DisabledSinkPrimitivesReturnNullAndDoNothing) {
  ASSERT_EQ(trace::sink(), nullptr);
  EXPECT_EQ(trace::counter("x"), nullptr);
  EXPECT_EQ(trace::gauge("x"), nullptr);
  EXPECT_EQ(trace::histogram("x"), nullptr);
  EXPECT_EQ(trace::series("x"), nullptr);
  trace::push_series(nullptr, 1.0, 2.0);  // must be a safe no-op
  trace::Span span("unrecorded");
  EXPECT_FALSE(span.active());
}

TEST_F(TraceTest, ScopedSinkInstallsOnTheCallingThreadAndRestores) {
  trace::TraceSink outer;
  trace::TraceSink inner;
  const trace::ScopedSink outer_scope(&outer);
  EXPECT_EQ(trace::sink(), &outer);
  {
    const trace::ScopedSink inner_scope(&inner);
    EXPECT_EQ(trace::sink(), &inner);
    {
      const trace::ScopedSink off(nullptr);
      EXPECT_EQ(trace::sink(), nullptr);
    }
    EXPECT_EQ(trace::sink(), &inner);
  }
  EXPECT_EQ(trace::sink(), &outer);
  // Another thread has its own (empty) slot.
  trace::TraceSink* seen = &inner;
  std::thread([&] { seen = trace::sink(); }).join();
  EXPECT_EQ(seen, nullptr);
}

TEST_F(TraceTest, DisabledSinkPathAllocatesNothing) {
  ASSERT_EQ(trace::sink(), nullptr);
  // Warm up thread-local state outside the measured window.
  { trace::Span warmup("warmup"); }
  (void)trace::counter("warmup");

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    trace::Span span("hot");
    span.set_attr("k", std::int64_t{1});
    span.set_attr("s", "value");
    (void)trace::counter("hot.counter");
    (void)trace::series("hot.series");
    trace::push_series(nullptr, 1.0, 2.0);
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "tracing-off instrumentation must not allocate";
}

}  // namespace
}  // namespace crowdrank

// ---------------------------------------------------------------------
// Allocation counting: replace the global allocator with a counting
// malloc shim. Defined after all test code to keep the overrides obvious.
// ---------------------------------------------------------------------

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
