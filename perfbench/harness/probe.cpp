// Process and host probes: CPU time, peak RSS, /proc/stat steal, and the
// per-run environment record.
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "util/simd.hpp"  // not re-exported by crowdrank.hpp

namespace perfbench {

double cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks cpu_ticks() {
  // Aggregate line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") {
    return ticks;
  }
  unsigned long long field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) {
      ticks.steal = field;
    }
  }
  return ticks;
}

double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  const unsigned long long total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double memory_copy_gbs() {
  // 2 x 32 MB: past any per-core cache, small beside the workloads' RSS.
  const std::size_t count = std::size_t{4} << 20;
  std::vector<double> from(count, 1.0);
  std::vector<double> to(count, 0.0);
  double best_s = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    std::memcpy(to.data(), from.data(), count * sizeof(double));
    best_s = std::min(best_s, ms_between(start, Clock::now()) / 1e3);
    from[static_cast<std::size_t>(rep)] = to[count - 1];
  }
  return 2.0 * static_cast<double>(count * sizeof(double)) / best_s / 1e9;
}

void record_environment(Report& report, std::size_t pool_width,
                        std::size_t executors, std::size_t in_flight) {
  const crowdrank::BuildInfo info = crowdrank::build_info();
  const std::string& revision = info.git_revision;
  const std::string dirty_suffix = "-dirty";
  const bool dirty =
      revision.size() >= dirty_suffix.size() &&
      revision.compare(revision.size() - dirty_suffix.size(),
                       dirty_suffix.size(), dirty_suffix) == 0;
  report.env_item("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.env_item("pool_width", std::to_string(pool_width));
  report.env_item("executors", std::to_string(executors));
  report.env_item("in_flight", std::to_string(in_flight));
  report.env_item("simd", crowdrank::simd::backend_name(
                              crowdrank::simd::active_backend()));
  report.env_item("revision", revision);
  report.env_item("dirty", dirty ? "1" : "0");
  report.env_item("build_type", info.build_type);
}

}  // namespace perfbench
