// Shared scaffolding for the reproduction bench binaries.
//
// Every bench prints (a) a banner naming the paper experiment it
// regenerates, (b) an aligned table with the same rows/series the paper
// reports, and (c) the same table as CSV for re-plotting. Default scales
// are reduced so the whole suite runs in minutes; set CROWDRANK_FULL=1 for
// paper-scale axes.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "crowdrank.hpp"

namespace crowdrank::bench {

/// True when CROWDRANK_FULL=1: run the paper's full axes.
inline bool full_scale() {
  const char* env = std::getenv("CROWDRANK_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// Prints the experiment banner.
inline void banner(const std::string& experiment,
                   const std::string& description) {
  std::cout << "\n=== " << experiment << " ===\n"
            << description << "\n"
            << (full_scale() ? "(full paper scale: CROWDRANK_FULL=1)"
                             : "(reduced default scale; set CROWDRANK_FULL=1 "
                               "for the paper's axes)")
            << "\n(threads: " << thread_count()
            << "; override with CROWDRANK_THREADS)\n\n";
}

/// Evaluates `fn(i)` for every cell i in [0, count) across the thread pool
/// and returns the results in index order, so sweep tables stay byte-stable
/// regardless of which thread ran which cell. Each cell must be
/// self-contained (its own config/Rng); anything the pipeline parallelizes
/// internally runs inline on the cell's worker, so the sweep level owns the
/// cores. Cells are claimed dynamically — long cells (large n) overlap
/// short ones.
template <typename Fn>
auto parallel_cells(std::size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  std::vector<std::invoke_result_t<Fn&, std::size_t>> out(count);
  parallel_for(0, count, /*grain=*/1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      out[i] = fn(i);
    }
  });
  return out;
}

/// Times the engine's four steps at its stage checkpoints, without a trace
/// sink: set one as `InferenceConfig::control` for a run, then read the
/// step intervals. The engine checkpoints before each step and once at
/// Done, so step k runs between stamps k and k + 1.
class StepClock final : public StageControl {
 public:
  static constexpr std::size_t kSteps = 4;
  /// The step span names, which are also the report's phase names.
  static constexpr std::array<const char*, kSteps> kStepNames = {
      "step1_truth_discovery", "step2_smoothing", "step3_propagation",
      "step4_find_best_ranking"};

  void checkpoint(const StageSnapshot& snapshot) override {
    stamps_[static_cast<std::size_t>(snapshot.next) -
            static_cast<std::size_t>(PipelineStage::TruthDiscovery)] =
        Clock::now();
  }

  /// Milliseconds of step `k` (0-based) of the last run.
  double step_ms(std::size_t k) const {
    return std::chrono::duration<double, std::milli>(stamps_[k + 1] -
                                                     stamps_[k])
        .count();
  }

  /// Milliseconds of all four steps of the last run.
  double total_ms() const {
    return std::chrono::duration<double, std::milli>(stamps_[kSteps] -
                                                     stamps_[0])
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::array<Clock::time_point, kSteps + 1> stamps_{};
};

/// Prints the table both aligned and as CSV.
inline void emit(const TableWriter& table) {
  table.print_aligned(std::cout);
  std::cout << "\n--- csv ---\n";
  table.print_csv(std::cout);
  std::cout.flush();
}

}  // namespace crowdrank::bench
