// §V-A claim — "the algorithm achieves convergence within 10 iterations
// for most of the testing cases".
//
// Sweeps worker-quality settings and budgets, reporting the iteration
// count of the truth-discovery loop, whether it converged before the cap,
// the share of tasks whose votes disagree (the only rows an iteration
// after the first runs over) and step 1's wall time.
#include "bench/common.hpp"

namespace crowdrank {
namespace {

void run() {
  bench::banner("Truth-discovery convergence (§V-A)",
                "iterations to convergence across quality settings "
                "(n = 100, tolerance 1e-6)");

  const std::size_t n = 100;
  TableWriter table({"distribution", "quality", "r", "iterations",
                     "converged", "one_edges", "contested", "step1_ms"});
  for (const auto dist :
       {QualityDistribution::Gaussian, QualityDistribution::Uniform}) {
    for (const auto level :
         {QualityLevel::High, QualityLevel::Medium, QualityLevel::Low}) {
      for (const double ratio : {0.1, 0.5, 1.0}) {
        ExperimentConfig config;
        config.object_count = n;
        config.selection_ratio = ratio;
        config.worker_pool_size = 30;
        config.workers_per_task = 3;
        config.worker_quality = {dist, level};
        config.inference.saps.iterations = 200;  // step 4 irrelevant here
        config.seed = 9000 + static_cast<std::uint64_t>(ratio * 10);
        bench::StepClock clock;
        config.inference.control = &clock;
        const ExperimentResult r = run_experiment(config);
        const TruthDiscoveryResult& step1 = r.inference.step1;
        table.add_row(
            {to_string(dist), to_string(level), TableWriter::fmt(ratio, 1),
             std::to_string(step1.iterations),
             step1.converged ? "yes" : "no",
             std::to_string(r.inference.one_edge_count),
             TableWriter::fmt(static_cast<double>(step1.contested_tasks) /
                                  static_cast<double>(step1.truths.size()),
                              3),
             TableWriter::fmt(clock.step_ms(0), 2)});
      }
    }
  }
  bench::emit(table);
}

}  // namespace
}  // namespace crowdrank

int main() {
  crowdrank::run();
  return 0;
}
