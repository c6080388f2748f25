#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace perfbench {

using crowdrank::PipelineStage;

SpanLog::SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

int SpanLog::reserve_id() {
  spans_.emplace_back();
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::set(int id, const char* name, int parent, std::uint64_t job,
                  Clock::time_point start, Clock::time_point end) {
  spans_[static_cast<std::size_t>(id)] = {name, parent, job, start, end};
}

int SpanLog::add(const char* name, int parent, std::uint64_t job,
                 Clock::time_point start, Clock::time_point end) {
  const int id = reserve_id();
  set(id, name, parent, job, start, end);
  return id;
}

std::vector<SpanLog::Layer> SpanLog::layers() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
    }
  }
  std::vector<Layer> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto [it, inserted] = index.emplace(s.name, out.size());
    if (inserted) {
      out.push_back({s.name, 0, 0.0});
    }
    Layer& layer = out[it->second];
    const double ms = ms_between(s.start, s.end);
    ++layer.spans;
    layer.self_ms += ms - child_ms[i];
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  // A long serve run records ~10^5 jobs; the file keeps the first ones.
  const std::size_t written = std::min(spans_.size(), kMaxWritten);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    // Serve jobs overlap; one row per in-flight slot keeps them readable.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"job\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.job % 8 + 1), us(s.start),
                 us(s.end) - us(s.start), i, s.parent,
                 static_cast<unsigned long long>(s.job));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

const char* const StageStamps::kIntervalNames[kStamps + 1] = {
    "service.pre_engine", "core.step1_truth", "core.step2_smoothing",
    "core.step3_propagation", "core.step4_search", "service.post_engine"};

void StageStamps::checkpoint(const crowdrank::StageSnapshot& snapshot) {
  static constexpr PipelineStage kOrder[kStamps] = {
      PipelineStage::TruthDiscovery, PipelineStage::Smoothing,
      PipelineStage::Propagation, PipelineStage::RankSearch,
      PipelineStage::Done};
  const auto now = Clock::now();
  // A stage out of order leaves the run incomplete (complete() is false).
  if (count_ < kStamps && snapshot.next == kOrder[count_]) {
    stamps_[count_++] = now;
  } else {
    count_ = kStamps + 1;
  }
}

std::vector<double> StageStamps::record(SpanLog& log, int parent,
                                        std::uint64_t job,
                                        Clock::time_point enter,
                                        Clock::time_point leave) const {
  std::vector<double> ms;
  Clock::time_point from = enter;
  for (std::size_t i = 0; i <= kStamps; ++i) {
    const Clock::time_point to = i < kStamps ? stamps_[i] : leave;
    log.add(kIntervalNames[i], parent, job, from, to);
    ms.push_back(ms_between(from, to));
    from = to;
  }
  return ms;
}

}  // namespace perfbench
