// End-to-end engine: the paper's full two-step strategy.
//
// InferenceEngine runs result inference (Steps 1-4, §V) over a collected
// vote batch; run_experiment() additionally drives the front half — task
// assignment (§IV), HIT construction, and a simulated non-interactive
// crowdsourcing round — which is what the benches and examples exercise.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/propagation.hpp"
#include "core/saps.hpp"
#include "core/smoothing.hpp"
#include "core/task_assignment.hpp"
#include "core/taps.hpp"
#include "core/truth_discovery.hpp"
#include "crowd/budget.hpp"
#include "crowd/hit.hpp"
#include "crowd/simulator.hpp"
#include "crowd/vote.hpp"
#include "metrics/ranking.hpp"

namespace crowdrank {

/// One structured configuration problem found by a `validate()` pass:
/// the offending field (dotted path, e.g. "saps.cooling_rate") and a
/// human-readable explanation. Collected into a list so a caller sees
/// every problem at once instead of fixing them one assert at a time.
struct ConfigError {
  std::string field;
  std::string message;
};

/// "field: message" rendering used by CLI/service error output.
std::string format_config_errors(const std::vector<ConfigError>& errors);

/// Which Step-4 search produces the final ranking.
enum class RankSearchMethod {
  Saps,      ///< simulated annealing (default; any n)
  Taps,      ///< threshold-based exact search (small n)
  HeldKarp,  ///< bitmask-DP exact search (n <= 20; test oracle)
};

/// Full configuration of the result-inference pipeline.
struct InferenceConfig {
  TruthDiscoveryConfig truth_discovery;
  SmoothingConfig smoothing;
  /// The engine defaults to SpectralLimit propagation: it covers pairs up
  /// to graph distance ~n, which matters on sparse (near-spanning-tree)
  /// budgets, and costs O(m) per power-iteration step wherever the walk
  /// mixes within L steps (the O(n^3 log n) doubling runs elsewhere).
  /// Set mode = PropagationMode::BoundedWalks for the paper-literal sum.
  PropagationConfig propagation{.mode = PropagationMode::SpectralLimit};
  RankSearchMethod search = RankSearchMethod::Saps;
  SapsConfig saps;
  TapsConfig taps;
  /// Runs the analysis/invariants.hpp stage validators between pipeline
  /// steps (Step-1 truth/quality ranges, smoothing unanimity semantics,
  /// closure pair-normalization, ranking permutation). ORed with the
  /// process-wide CROWDRANK_CHECK_INVARIANTS switch; violations throw
  /// analysis::InvariantError. Validation only reads stage output, so an
  /// enabled run is bitwise-identical to a disabled one.
  bool check_invariants = false;
  /// Cooperative stage control (core/checkpoint.hpp). When non-null the
  /// engine calls `control->checkpoint()` before every stage and once with
  /// PipelineStage::Done after Step 4; the controller may throw to abort
  /// the run between stages. Null (the default) costs one branch per
  /// stage. The serving layer uses this for deadlines, cancellation, and
  /// fault injection.
  StageControl* control = nullptr;

  /// Validates every tunable and returns all problems found (empty =
  /// valid). Used by the CLI and by `service::RankingService::submit`, so
  /// bad configs surface as structured errors instead of asserts or
  /// silent nonsense deep inside a stage.
  std::vector<ConfigError> validate() const;
};

/// Everything the pipeline learned. Step times are not part of it: a run
/// under a trace::ScopedSink records an `infer` span whose four children
/// are "step1_truth_discovery", "step2_smoothing", "step3_propagation" and
/// "step4_find_best_ranking" (Fig. 4's breakdown), and a StageControl
/// sees the stage checkpoints between them. Nor is Step 3's n x n
/// closure: SAPS writes its cost matrix over it. A caller that needs the
/// closure (core/confidence.hpp, core/two_round.hpp) sets a ClosureCapture
/// (core/checkpoint.hpp) as `InferenceConfig::control`.
struct InferenceResult {
  Ranking ranking;                ///< the aggregated full ranking
  double log_probability = 0.0;   ///< log Pr of the chosen Hamiltonian path
  TruthDiscoveryResult step1;
  SmoothingStats step2;
  PropagationStats step3;
  std::size_t one_edge_count = 0;  ///< 1-edges before smoothing
};

/// Runs Steps 1-4 over a vote batch.
///  * `object_count` is n; `worker_count` sizes the quality vector.
///  * Smoothing consults each task's workers: the HitAssignment's list for
///    that task, or, without an assignment, its voters in first-seen
///    order. Both come from one flat index of the batch (`VoteIndex`).
///  * Each stage's working set ends with its last reader: the index and
///    the task workers when step 2 returns, before step 3 allocates the
///    n x n closure, and a batch passed by rvalue once step 1 has indexed
///    it.
/// `rng` drives SAPS and (if configured) sampled smoothing.
class InferenceEngine {
 public:
  explicit InferenceEngine(InferenceConfig config = {});

  const InferenceConfig& config() const { return config_; }

  /// Full inference over a collected batch. The assignment supplies the
  /// per-task worker lists needed by smoothing.
  InferenceResult infer(const VoteBatch& votes, std::size_t object_count,
                        std::size_t worker_count,
                        const HitAssignment& assignment, Rng& rng) const;

  /// Assignment-free variant: the workers consulted by smoothing for each
  /// task are exactly those who voted on it. Use this when only the raw
  /// vote export exists (e.g. an AMT result file through the CLI) — for
  /// a well-formed one-round batch it is equivalent to the assignment
  /// overload, since every assigned worker answers every task of their
  /// HIT.
  InferenceResult infer(const VoteBatch& votes, std::size_t object_count,
                        std::size_t worker_count, Rng& rng) const;

  /// The two runs above over a batch the engine takes: it is released
  /// (left empty) as soon as step 1 has indexed it, so steps 2-4 allocate
  /// into the memory it held. Bitwise-identical to the const& overloads.
  InferenceResult infer(VoteBatch&& votes, std::size_t object_count,
                        std::size_t worker_count,
                        const HitAssignment& assignment, Rng& rng) const;
  InferenceResult infer(VoteBatch&& votes, std::size_t object_count,
                        std::size_t worker_count, Rng& rng) const;

 private:
  /// `assignment` null: each task's workers are its voters. `release`
  /// non-null: it is `votes` itself, emptied once step 1 has indexed it.
  InferenceResult infer_impl(const VoteBatch& votes, VoteBatch* release,
                             std::size_t object_count,
                             std::size_t worker_count,
                             const HitAssignment* assignment, Rng& rng) const;

  InferenceConfig config_;
};

/// One simulated non-interactive experiment end to end.
struct ExperimentConfig {
  std::size_t object_count = 100;           ///< n
  double selection_ratio = 0.1;             ///< r: l = r * C(n,2)
  std::size_t worker_pool_size = 30;        ///< m
  std::size_t workers_per_task = 3;         ///< w (replication)
  std::size_t comparisons_per_hit = 5;      ///< c
  double reward_per_comparison = 0.025;     ///< the paper's AMT rate
  WorkerPoolConfig worker_quality;
  InferenceConfig inference;
  std::uint64_t seed = 42;

  /// Validates the experiment-level knobs (object count, budget ratio,
  /// replication vs pool size, HIT sizing, reward) plus the nested
  /// `inference` config. Empty result = valid. `run_experiment` throws a
  /// crowdrank::Error listing every problem when this is non-empty.
  std::vector<ConfigError> validate() const;
};

struct ExperimentResult {
  Ranking truth;
  InferenceResult inference;
  TaskAssignmentStats assignment_stats;
  double accuracy = 0.0;  ///< 1 - normalized Kendall tau vs ground truth
  std::size_t unique_tasks = 0;
  double total_cost = 0.0;
};

/// Generates ground truth + workers + assignment + votes, runs inference,
/// and scores the result — the full loop of §VI's simulated setting.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace crowdrank
