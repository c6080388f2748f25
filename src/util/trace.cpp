#include "util/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string_view>

#include "util/build_info.hpp"
#include "util/json_string.hpp"

namespace crowdrank::trace {

namespace {

/// The calling thread's active sink, and the innermost span this thread
/// has open in it (the top of the sink's span stack on this thread).
/// ScopedSink swaps both; each Span keeps the index it replaced, so the
/// stack itself lives in the chain of open Span objects.
thread_local TraceSink* t_sink = nullptr;
thread_local std::size_t t_open_span = SpanRecord::kNoParent;

}  // namespace

TraceSink* sink() noexcept { return t_sink; }

ScopedSink::ScopedSink(TraceSink* s) noexcept
    : previous_sink_(t_sink), previous_span_(t_open_span) {
  t_sink = s;
  t_open_span = SpanRecord::kNoParent;
}

ScopedSink::~ScopedSink() {
  t_sink = previous_sink_;
  t_open_span = previous_span_;
}

TraceSink::TraceSink() : epoch_(std::chrono::steady_clock::now()) {}

double TraceSink::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<SpanRecord> TraceSink::spans() const {
  MutexLock lock(mutex_);
  return spans_;
}

std::size_t TraceSink::open_span(const char* name, std::size_t parent) {
  SpanRecord record;
  record.name = name;
  record.start_us = now_us();
  record.tid = metrics::thread_ordinal();
  record.parent = parent;
  MutexLock lock(mutex_);
  spans_.push_back(std::move(record));
  return spans_.size() - 1;
}

void TraceSink::close_span(std::size_t index) {
  const double end_us = now_us();
  MutexLock lock(mutex_);
  if (index < spans_.size()) {
    spans_[index].dur_us = end_us - spans_[index].start_us;
  }
}

void TraceSink::span_attr(std::size_t index, const char* key,
                          AttrValue value) {
  MutexLock lock(mutex_);
  if (index < spans_.size()) {
    spans_[index].attrs.emplace_back(key, std::move(value));
  }
}

void TraceSink::annotate_descendants(std::size_t root, const char* key,
                                     AttrValue value) {
  MutexLock lock(mutex_);
  // A parent always has a smaller index than its children (it opened
  // first), so only spans after `root` can descend from it, and a parent
  // chain can be walked downward until it passes `root`.
  for (std::size_t i = root + 1; i < spans_.size(); ++i) {
    std::size_t p = spans_[i].parent;
    while (p != SpanRecord::kNoParent && p > root) {
      p = spans_[p].parent;
    }
    if (p == root) {
      spans_[i].attrs.emplace_back(key, value);
    }
  }
}

Span::Span(const char* name) : sink_(t_sink) {
  if (sink_ != nullptr) {
    parent_ = t_open_span;
    index_ = sink_->open_span(name, parent_);
    t_open_span = index_;
  }
}

Span::~Span() {
  if (sink_ != nullptr) {
    sink_->close_span(index_);
    t_open_span = parent_;
  }
}

void Span::set_attr(const char* key, std::int64_t value) {
  if (sink_ != nullptr) sink_->span_attr(index_, key, value);
}
void Span::set_attr(const char* key, std::uint64_t value) {
  set_attr(key, static_cast<std::int64_t>(value));
}
void Span::set_attr(const char* key, double value) {
  if (sink_ != nullptr) sink_->span_attr(index_, key, value);
}
void Span::set_attr(const char* key, bool value) {
  if (sink_ != nullptr) sink_->span_attr(index_, key, value);
}
void Span::set_attr(const char* key, const char* value) {
  if (sink_ != nullptr) sink_->span_attr(index_, key, std::string(value));
}
void Span::set_attr(const char* key, const std::string& value) {
  if (sink_ != nullptr) sink_->span_attr(index_, key, value);
}

metrics::Counter* counter(const char* name) {
  TraceSink* s = sink();
  return s != nullptr ? &s->metrics().counter(name) : nullptr;
}

metrics::Gauge* gauge(const char* name) {
  TraceSink* s = sink();
  return s != nullptr ? &s->metrics().gauge(name) : nullptr;
}

metrics::Histogram* histogram(const char* name) {
  TraceSink* s = sink();
  return s != nullptr ? &s->metrics().histogram(name) : nullptr;
}

metrics::Series* series(const char* name) {
  TraceSink* s = sink();
  return s != nullptr ? &s->metrics().series(name) : nullptr;
}

void push_series(metrics::Series* s, double x, double y) {
  if (s == nullptr) {
    return;
  }
  TraceSink* active = sink();
  s->push(active != nullptr ? active->now_us() : 0.0, x, y);
}

// ---------------------------------------------------------------------
// JSON plumbing shared by both exporters.
// ---------------------------------------------------------------------

namespace {

/// Shortest round-trippable decimal ("%.17g" made json-safe; non-finite
/// values have no JSON literal, so they serialize as null).
void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void json_value(std::ostream& os, const AttrValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&v)) {
    json_number(os, *d);
  } else if (const auto* b = std::get_if<bool>(&v)) {
    os << (*b ? "true" : "false");
  } else {
    write_json_string(os, std::get<std::string>(v));
  }
}

void json_span_attrs(
    std::ostream& os,
    const std::vector<std::pair<std::string, AttrValue>>& attrs) {
  os << '{';
  for (std::size_t a = 0; a < attrs.size(); ++a) {
    if (a > 0) os << ',';
    write_json_string(os, attrs[a].first);
    os << ':';
    json_value(os, attrs[a].second);
  }
  os << '}';
}

}  // namespace

void TraceSink::write_chrome_trace(std::ostream& os) const {
  std::vector<SpanRecord> spans;
  {
    MutexLock lock(mutex_);
    spans = spans_;
  }
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"crowdrank\"}}";
  for (const SpanRecord& s : spans) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"name\":";
    write_json_string(os, s.name);
    os << ",\"ts\":";
    json_number(os, s.start_us);
    os << ",\"dur\":";
    json_number(os, s.dur_us);
    os << ",\"args\":";
    json_span_attrs(os, s.attrs);
    os << '}';
  }
  // Series render as chrome counter tracks: one "C" event per point at the
  // wall time the point was pushed.
  for (const auto& [name, points] : metrics_.all_series()) {
    for (const metrics::Series::Point& p : points) {
      os << ",\n{\"ph\":\"C\",\"pid\":1,\"name\":";
      write_json_string(os, name);
      os << ",\"ts\":";
      json_number(os, p.t_us);
      os << ",\"args\":{\"value\":";
      json_number(os, p.y);
      os << "}}";
    }
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------

RunReport::RunReport(std::string title) : title_(std::move(title)) {}

void RunReport::note(const std::string& key, NoteValue value) {
  notes_.emplace_back(key, std::move(value));
}

RunReport::Run& RunReport::add_run(std::string label) {
  runs_.push_back(std::make_unique<Run>(std::move(label)));
  return *runs_.back();
}

void RunReport::Run::note(const std::string& key, NoteValue value) {
  notes_.emplace_back(key, std::move(value));
}

void RunReport::Run::capture(const TraceSink& sink) {
  spans_ = sink.spans();
  const metrics::Registry& m = sink.metrics();
  counters_ = m.counters();
  gauges_ = m.gauges();
  histograms_ = m.histograms();
  series_ = m.all_series();
  for (const SpanRecord& span : spans_) {
    if (span.parent != SpanRecord::kNoParent &&
        spans_[span.parent].parent == SpanRecord::kNoParent) {
      phase(span.name, span.dur_us * 1e-3);
    }
  }
}

void RunReport::Run::phase(const std::string& name, double ms) {
  const auto it =
      std::find_if(phases_ms_.begin(), phases_ms_.end(),
                   [&](const auto& entry) { return entry.first == name; });
  if (it == phases_ms_.end()) {
    phases_ms_.emplace_back(name, ms);
  } else {
    it->second += ms;
  }
}

namespace {

void write_notes(std::ostream& os, const char* indent,
                 const std::vector<std::pair<std::string, NoteValue>>& notes) {
  os << "{";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << indent << "  ";
    write_json_string(os, notes[i].first);
    os << ": ";
    json_value(os, notes[i].second);
  }
  if (!notes.empty()) os << "\n" << indent;
  os << "}";
}

}  // namespace

void RunReport::write(std::ostream& os) const {
  const BuildInfo build = build_info();
  os << "{\n  \"report\": ";
  write_json_string(os, title_);
  os << ",\n  \"build\": {\n"
     << "    \"version\": ";
  write_json_string(os, build.version);
  os << ",\n    \"git\": ";
  write_json_string(os, build.git_revision);
  os << ",\n    \"compiler\": ";
  write_json_string(os, build.compiler);
  os << ",\n    \"build_type\": ";
  write_json_string(os, build.build_type);
  os << ",\n    \"threads\": " << build.threads
     << ",\n    \"thread_source\": ";
  write_json_string(os, build.thread_source);
  os << "\n  },\n  \"notes\": ";
  write_notes(os, "  ", notes_);
  os << ",\n  \"runs\": [";
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const Run& run = *runs_[r];
    os << (r == 0 ? "\n" : ",\n") << "    {\n      \"label\": ";
    write_json_string(os, run.label_);
    os << ",\n      \"notes\": ";
    write_notes(os, "      ", run.notes_);

    os << ",\n      \"phases_ms\": {";
    for (std::size_t i = 0; i < run.phases_ms_.size(); ++i) {
      os << (i == 0 ? "" : ", ");
      write_json_string(os, run.phases_ms_[i].first);
      os << ": ";
      json_number(os, run.phases_ms_[i].second);
    }
    os << "},\n      \"counters\": {";
    for (std::size_t i = 0; i < run.counters_.size(); ++i) {
      os << (i == 0 ? "" : ", ");
      write_json_string(os, run.counters_[i].first);
      os << ": " << run.counters_[i].second;
    }
    os << "},\n      \"gauges\": {";
    for (std::size_t i = 0; i < run.gauges_.size(); ++i) {
      os << (i == 0 ? "" : ", ");
      write_json_string(os, run.gauges_[i].first);
      os << ": ";
      json_number(os, run.gauges_[i].second);
    }

    os << "},\n      \"histograms\": {";
    for (std::size_t i = 0; i < run.histograms_.size(); ++i) {
      const auto& [name, snap] = run.histograms_[i];
      os << (i == 0 ? "" : ", ");
      write_json_string(os, name);
      os << ": {\"count\": " << snap.count << ", \"sum\": ";
      json_number(os, snap.sum);
      os << ", \"min\": ";
      json_number(os, snap.count > 0 ? snap.min : 0.0);
      os << ", \"max\": ";
      json_number(os, snap.count > 0 ? snap.max : 0.0);
      // Sparse bucket dump: [upper_bound, count] for non-empty buckets.
      os << ", \"buckets\": [";
      bool first_bucket = true;
      for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
        if (snap.buckets[b] == 0) continue;
        if (!first_bucket) os << ", ";
        first_bucket = false;
        os << "[";
        json_number(os, metrics::Histogram::bucket_upper_bound(b));
        os << ", " << snap.buckets[b] << "]";
      }
      os << "]}";
    }

    os << "},\n      \"series\": {";
    for (std::size_t i = 0; i < run.series_.size(); ++i) {
      const auto& [name, points] = run.series_[i];
      os << (i == 0 ? "" : ", ");
      write_json_string(os, name);
      os << ": [";
      for (std::size_t p = 0; p < points.size(); ++p) {
        os << (p == 0 ? "" : ", ") << "[";
        json_number(os, points[p].x);
        os << ", ";
        json_number(os, points[p].y);
        os << "]";
      }
      os << "]";
    }

    os << "},\n      \"spans\": [";
    for (std::size_t s = 0; s < run.spans_.size(); ++s) {
      const SpanRecord& span = run.spans_[s];
      os << (s == 0 ? "\n" : ",\n") << "        {\"name\": ";
      write_json_string(os, span.name);
      os << ", \"start_us\": ";
      json_number(os, span.start_us);
      os << ", \"dur_us\": ";
      json_number(os, span.dur_us);
      os << ", \"tid\": " << span.tid << ", \"parent\": ";
      if (span.parent == SpanRecord::kNoParent) {
        os << -1;
      } else {
        os << static_cast<long long>(span.parent);
      }
      os << ", \"attrs\": ";
      json_span_attrs(os, span.attrs);
      os << "}";
    }
    if (!run.spans_.empty()) os << "\n      ";
    os << "]\n    }";
  }
  if (!runs_.empty()) os << "\n  ";
  os << "]\n}\n";
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  write(os);
  return os.good();
}

}  // namespace crowdrank::trace
