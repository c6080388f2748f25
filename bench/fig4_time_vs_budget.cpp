// Fig. 4 — SAPS time vs selection ratio, with the per-step breakdown
// (paper §VI-B "Budgets").
//
// The paper sweeps r from 0.1 to 1.0 (r = 1 is the all-pair baseline) at a
// fixed n and reports: total inference time rising gently with r; Step 4
// dominating the other steps; and the number of 1-edges being much larger
// under the Gaussian quality distribution than under the Uniform one
// (which decides whether Step 1 or Step 2 is faster).
#include "bench/common.hpp"

namespace crowdrank {
namespace {

void run() {
  bench::banner(
      "Figure 4",
      "inference time vs selection ratio, per-step breakdown and 1-edge "
      "counts (medium worker quality, both distributions)");

  const std::size_t n = bench::full_scale() ? 1000 : 300;
  const std::vector<double> ratios = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9, 1.0};

  // Sweep cells (distribution x ratio) run concurrently on the pool; each
  // cell is self-seeded so rows match the sequential sweep.
  struct Cell {
    QualityDistribution dist;
    double r;
  };
  std::vector<Cell> cells;
  for (const auto dist :
       {QualityDistribution::Gaussian, QualityDistribution::Uniform}) {
    for (const double r : ratios) {
      cells.push_back({dist, r});
    }
  }

  const auto rows =
      bench::parallel_cells(cells.size(), [&](std::size_t i) {
        const Cell& cell = cells[i];
        ExperimentConfig config;
        config.object_count = n;
        config.selection_ratio = cell.r;
        config.worker_pool_size = 30;
        config.workers_per_task = 3;
        config.worker_quality = {cell.dist, QualityLevel::Medium};
        config.seed = 7 + static_cast<std::uint64_t>(cell.r * 100);
        bench::StepClock clock;
        config.inference.control = &clock;
        const ExperimentResult result = run_experiment(config);
        return std::vector<std::string>{
            to_string(cell.dist), TableWriter::fmt(cell.r, 1),
            TableWriter::fmt(clock.total_ms() * 1e-3),
            TableWriter::fmt(clock.step_ms(0) * 1e-3),
            TableWriter::fmt(clock.step_ms(1) * 1e-3),
            TableWriter::fmt(clock.step_ms(2) * 1e-3),
            TableWriter::fmt(clock.step_ms(3) * 1e-3),
            std::to_string(result.inference.one_edge_count),
            TableWriter::fmt(result.accuracy)};
      });

  TableWriter table({"distribution", "r", "total_s", "step1_s", "step2_s",
                     "step3_s", "step4_s", "one_edges", "accuracy"});
  for (const auto& row : rows) {
    table.add_row(row);
  }
  bench::emit(table);
}

}  // namespace
}  // namespace crowdrank

int main() {
  crowdrank::run();
  return 0;
}
