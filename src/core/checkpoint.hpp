// Cooperative stage checkpoints for the inference pipeline.
//
// A long-lived serving layer (src/service) needs to deadline, cancel, and
// fault-inject jobs without preemption. The pipeline cooperates: between
// every two stages it calls `StageControl::checkpoint` with a snapshot of
// the work completed so far. A controller aborts the run by throwing from
// the checkpoint — the pipeline performs no stage-spanning mutation, so an
// abort between stages leaves no partial state behind — or copies what
// the snapshot points at to capture intermediate output (the Step-1
// truths, the smoothed graph, the closure) before the run continues.
// Step 3's closure is not part of InferenceResult: SAPS overwrites it with
// its cost matrix, so a caller that needs it copies it at the RankSearch
// checkpoint, which is what ClosureCapture below does.
//
// Checkpoints run on the coordinating thread, never inside a parallel
// region, so a throwing checkpoint unwinds without wedging the pool.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "util/matrix.hpp"

namespace crowdrank {

struct TruthDiscoveryResult;
class PreferenceGraph;

/// Lifecycle stages of one ranking job, in execution order. Validation and
/// Hardening are service-level stages (src/service); the inference engine
/// itself checkpoints TruthDiscovery through Done.
enum class PipelineStage {
  Validation,      ///< config/request validation (before any work)
  Hardening,       ///< vote-batch repair (service input hardening)
  TruthDiscovery,  ///< Step 1 (§V-A)
  Smoothing,       ///< Step 2 (§V-B)
  Propagation,     ///< Step 3 (§V-C)
  RankSearch,      ///< Step 4 (§V-D)
  Done,            ///< pipeline finished
};

/// Stable machine-readable stage name ("truth_discovery", ...).
const char* stage_name(PipelineStage stage);

/// Inverse of `stage_name`: nullopt for an unknown name. Used by the
/// serve CLI to accept stage names in jobs files (fault injection).
std::optional<PipelineStage> stage_from_name(std::string_view name);

/// What the pipeline has produced when a checkpoint fires. `next` is the
/// stage about to start (Done once the ranking exists); the pointers fill
/// in as stages complete and stay valid only for the checkpoint call.
struct StageSnapshot {
  PipelineStage next = PipelineStage::TruthDiscovery;
  const TruthDiscoveryResult* truth = nullptr;  ///< after Step 1
  const PreferenceGraph* smoothed = nullptr;    ///< after Step 2
  /// Step 3's closure: set at the RankSearch checkpoint only. Step 4's
  /// SAPS consumes it, so it is null again at Done.
  const Matrix* closure = nullptr;
};

/// Cooperative control handle. Implementations observe progress and may
/// throw to abort the run between stages (the service layer throws
/// service::JobInterrupt to map aborts onto structured job outcomes).
class StageControl {
 public:
  virtual ~StageControl() = default;
  virtual void checkpoint(const StageSnapshot& snapshot) = 0;
};

/// Copies Step 3's closure at the RankSearch checkpoint, then forwards
/// every checkpoint to `inner` (when non-null). Set it as
/// InferenceConfig::control (or api::Request::inference.control) to read
/// the closure after a run: core/confidence.hpp and core/two_round.hpp
/// read it this way.
class ClosureCapture final : public StageControl {
 public:
  explicit ClosureCapture(StageControl* inner = nullptr) : inner_(inner) {}

  void checkpoint(const StageSnapshot& snapshot) override;

  /// The n x n pair-normalized closure of the last run that reached
  /// Step 4; 0 x 0 before one has (a cache hit runs no engine).
  const Matrix& closure() const { return closure_; }

 private:
  StageControl* inner_;
  Matrix closure_;
};

}  // namespace crowdrank
