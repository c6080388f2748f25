// Fig. 3 — SAPS inference time vs number of objects (paper §VI-B).
//
// The paper varies n from 100 to 1000 at selection ratio r = 0.1 with
// medium-quality workers under both quality distributions, and reports the
// wall-clock time of the result-inference step (SAPS). Shape to reproduce:
// time grows polynomially with n but stays in seconds-to-minutes even at
// n = 1000, and the worker-quality distribution has little effect on it.
#include "bench/common.hpp"

namespace crowdrank {
namespace {

void run() {
  bench::banner("Figure 3",
                "SAPS result-inference time vs #objects (r = 0.1, medium "
                "worker quality, Gaussian and Uniform distributions)");

  const std::vector<std::size_t> object_counts =
      bench::full_scale()
          ? std::vector<std::size_t>{100, 200, 300, 400, 500, 600, 700, 800,
                                     900, 1000}
          : std::vector<std::size_t>{100, 200, 300, 400, 500};

  // One sweep cell per (n, distribution); cells run concurrently on the
  // pool, and every cell seeds its own Rng, so the table is identical to
  // the sequential sweep, just rows computed in parallel.
  struct Cell {
    std::size_t n;
    QualityDistribution dist;
  };
  std::vector<Cell> cells;
  for (const std::size_t n : object_counts) {
    for (const auto dist :
         {QualityDistribution::Gaussian, QualityDistribution::Uniform}) {
      cells.push_back({n, dist});
    }
  }

  const auto rows =
      bench::parallel_cells(cells.size(), [&](std::size_t i) {
        const Cell& cell = cells[i];
        ExperimentConfig config;
        config.object_count = cell.n;
        config.selection_ratio = 0.1;
        config.worker_pool_size = 30;
        config.workers_per_task = 3;
        config.worker_quality = {cell.dist, QualityLevel::Medium};
        config.seed = 42 + cell.n;
        bench::StepClock clock;
        config.inference.control = &clock;
        const ExperimentResult r = run_experiment(config);
        return std::vector<std::string>{
            std::to_string(cell.n), to_string(cell.dist),
            TableWriter::fmt(clock.total_ms() * 1e-3),
            TableWriter::fmt(r.accuracy)};
      });

  TableWriter table({"n", "distribution", "inference_time_s", "accuracy"});
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
