// perfbench: the end-to-end benchmark harness.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--toy] [--inject wrong_ranking|cache_miss]
//
// Prints the environment record, human-readable figures, any check
// violations, and last a one-line JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 when every check held, 1 when one failed, 2 on bad usage.
// perfbench/README.md describes the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"paper_n1000", "sparse_n2000",
                                      "serve_cold", "serve_warm"};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload paper_n1000|sparse_n2000|"
               "serve_cold|serve_warm [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--toy] "
               "[--inject wrong_ranking|cache_miss]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(flag + " needs a value");
      }
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        options.workload = value();
      } else if (flag == "--seed") {
        options.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = v == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value();
      } else if (flag == "--toy") {
        options.toy = true;
      } else if (flag == "--inject") {
        options.inject = value();
        if (options.inject != "wrong_ranking" &&
            options.inject != "cache_miss") {
          usage("unknown injection " + options.inject);
        }
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) {
    known = known || options.workload == w;
  }
  if (!known) {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return options;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Report report;
  try {
    report = options.workload.rfind("serve_", 0) == 0 ? run_serve(options)
                                                      : run_pipeline(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  // After the run, so the probe's buffers never count in peak_rss_mb.
  char gbs[32];
  std::snprintf(gbs, sizeof gbs, "%.2f", memory_copy_gbs());
  report.env_item("mem_copy_gbs", gbs);

  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace " << options.trace
            << "\nenv";
  for (const auto& [key, value] : report.env) {
    std::cout << " " << key << "=" << value;
  }
  std::cout << "\n";
  for (const Metric& m : report.notes) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& v : report.violations) {
    std::cout << "violation: " << v << "\n";
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
