#include "obs/exposition.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <variant>

#include "util/json_string.hpp"

namespace crowdrank::obs {

namespace {

/// Shortest round-trippable decimal, JSON- and Prometheus-safe (matches
/// the RunReport exporter's rendering so numbers diff cleanly across
/// formats). Non-finite values serialize as null / NaN respectively at
/// the call sites that can see them; samples here are always finite.
void number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void attr_value(std::ostream& os, const trace::AttrValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&value)) {
    number(os, *d);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    os << (*b ? "true" : "false");
  } else {
    write_json_string(os, std::get<std::string>(value));
  }
}

void event_json(std::ostream& os, const Event& e) {
  os << "{\"t_us\": ";
  number(os, e.t_us);
  os << ", \"kind\": ";
  write_json_string(os, event_kind_name(e.kind));
  os << ", \"job\": " << e.job_id << ", \"code\": "
     << static_cast<unsigned>(e.code) << ", \"value\": ";
  number(os, e.value);
  os << '}';
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "crowdrank_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prometheus(std::ostream& os, const TelemetrySnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " counter\n" << prom << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " gauge\n" << prom << ' ';
    number(os, value);
    os << '\n';
  }
  {
    const std::string prom = prometheus_name("jobs_per_sec");
    os << "# TYPE " << prom << " gauge\n" << prom << ' ';
    number(os, snapshot.window.jobs_per_sec);
    os << '\n';
  }
  for (const auto& [name, snap] : snapshot.histograms) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " histogram\n";
    // Cumulative counts at each non-empty explicit bound; exposition
    // permits sparse `le` ladders as long as counts never decrease.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      if (snap.buckets[b] == 0) {
        continue;
      }
      cumulative += snap.buckets[b];
      os << prom << "_bucket{le=\"";
      number(os, metrics::Histogram::bucket_upper_bound(b));
      os << "\"} " << cumulative << '\n';
    }
    os << prom << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    os << prom << "_sum ";
    number(os, snap.sum);
    os << '\n' << prom << "_count " << snap.count << '\n';
  }
}

void write_snapshot_json(std::ostream& os,
                         const TelemetrySnapshot& snapshot) {
  os << "{\"v\": " << kSnapshotSchemaVersion
     << ", \"seq\": " << snapshot.seq << ", \"t_us\": ";
  number(os, snapshot.t_us);

  os << ", \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) os << ", ";
    write_json_string(os, snapshot.counters[i].first);
    os << ": " << snapshot.counters[i].second;
  }
  os << "}, \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) os << ", ";
    write_json_string(os, snapshot.gauges[i].first);
    os << ": ";
    number(os, snapshot.gauges[i].second);
  }

  os << "}, \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, snap] = snapshot.histograms[i];
    if (i > 0) os << ", ";
    write_json_string(os, name);
    os << ": {\"count\": " << snap.count << ", \"sum\": ";
    number(os, snap.sum);
    os << ", \"min\": ";
    number(os, snap.count > 0 ? snap.min : 0.0);
    os << ", \"max\": ";
    number(os, snap.count > 0 ? snap.max : 0.0);
    os << ", \"p50\": ";
    number(os, snap.quantile(0.50));
    os << ", \"p99\": ";
    number(os, snap.quantile(0.99));
    os << ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      if (snap.buckets[b] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << '[';
      number(os, metrics::Histogram::bucket_upper_bound(b));
      os << ", " << snap.buckets[b] << ']';
    }
    os << "]}";
  }

  os << "}, \"window\": {\"jobs_per_sec\": ";
  number(os, snapshot.window.jobs_per_sec);
  os << ", \"window_ms\": ";
  number(os, snapshot.window.window_ms);
  os << ", \"finished\": " << snapshot.window.finished;

  os << "}, \"events_recorded\": " << snapshot.events_recorded
     << ", \"events\": [";
  for (std::size_t i = 0; i < snapshot.events.size(); ++i) {
    if (i > 0) os << ", ";
    event_json(os, snapshot.events[i]);
  }
  os << "]}";
}

void write_postmortem_json(std::ostream& os, const Postmortem& postmortem) {
  os << "{\n  \"v\": " << kSnapshotSchemaVersion
     << ",\n  \"job\": " << postmortem.job_id
     << ",\n  \"executor\": " << postmortem.executor << ",\n  \"outcome\": ";
  write_json_string(os, postmortem.outcome);
  os << ",\n  \"stage\": ";
  write_json_string(os, postmortem.stage);
  os << ",\n  \"reason\": ";
  write_json_string(os, postmortem.reason);
  os << ",\n  \"t_us\": ";
  number(os, postmortem.t_us);

  os << ",\n  \"config\": {";
  for (std::size_t i = 0; i < postmortem.config_echo.size(); ++i) {
    if (i > 0) os << ", ";
    write_json_string(os, postmortem.config_echo[i].first);
    os << ": ";
    attr_value(os, postmortem.config_echo[i].second);
  }

  os << "},\n  \"hardening\": {";
  for (std::size_t i = 0; i < postmortem.hardening.size(); ++i) {
    if (i > 0) os << ", ";
    write_json_string(os, postmortem.hardening[i].first);
    os << ": " << postmortem.hardening[i].second;
  }

  os << "},\n  \"spans\": [";
  for (std::size_t i = 0; i < postmortem.spans.size(); ++i) {
    const trace::SpanRecord& span = postmortem.spans[i];
    if (i > 0) os << ',';
    os << "\n    {\"name\": ";
    write_json_string(os, span.name);
    os << ", \"start_us\": ";
    number(os, span.start_us);
    os << ", \"dur_us\": ";
    number(os, span.dur_us);
    os << ", \"tid\": " << span.tid << ", \"parent\": ";
    if (span.parent == trace::SpanRecord::kNoParent) {
      os << -1;
    } else {
      os << span.parent;
    }
    os << ", \"attrs\": {";
    for (std::size_t a = 0; a < span.attrs.size(); ++a) {
      if (a > 0) os << ", ";
      write_json_string(os, span.attrs[a].first);
      os << ": ";
      attr_value(os, span.attrs[a].second);
    }
    os << "}}";
  }
  os << (postmortem.spans.empty() ? "]" : "\n  ]");

  os << ",\n  \"events\": [";
  for (std::size_t i = 0; i < postmortem.events.size(); ++i) {
    if (i > 0) os << ',';
    os << "\n    ";
    event_json(os, postmortem.events[i]);
  }
  os << (postmortem.events.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace crowdrank::obs
