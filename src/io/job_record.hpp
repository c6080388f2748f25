// JSONL job records for `crowdrank serve`.
//
// A jobs file has one JSON object per line, each describing one
// RankingJob for the batch service:
//
//   {"votes": "votes.csv", "object_count": 50, "seed": 7,
//    "search": "saps", "deadline_ms": 1000}
//
// Only `votes` is required. The corresponding results file is also JSONL:
// one structured outcome object per job, in submission order, carrying
// the outcome, stage, degradation counts, timing, and (when ranked) the
// ranking itself — machine-readable end to end.
//
// Each line is read by obs::parse_json, the project's one JSON reader;
// the job-level checks (known keys, no duplicates, value types, the
// required `votes`) are made here, and every error names its line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/job.hpp"

namespace crowdrank::io {

/// One parsed jobs-file line.
struct JobRecord {
  /// Caller-chosen id echoed into the result line. Without one, the
  /// record's 1-based position among the file's records (blank lines
  /// skipped).
  std::uint64_t id = 0;
  std::string votes_path;  ///< votes.csv for this job (required)
  std::size_t object_count = 0;
  std::size_t worker_count = 0;
  std::uint64_t seed = 1;
  std::string search = "saps";  ///< saps | taps | heldkarp
  std::size_t saps_iterations = 0;  ///< 0 = pipeline default
  std::size_t deadline_ms = 0;      ///< 0 = service default
  /// Deterministic fault injection: abort the job with an injected
  /// failure when this stage is about to start (a `stage_name` string,
  /// e.g. "rank_search"; empty = no fault). Drives postmortem and
  /// degraded-path testing from plain jobs files.
  std::string fail_before;
  std::string fail_reason;  ///< reason echoed by the injected failure
};

/// Parses a whole jobs file (JSONL). Throws crowdrank::Error naming the
/// offending line on malformed input or unknown keys.
std::vector<JobRecord> parse_job_records(const std::string& text);

/// Serializes one record as a single JSON line (no trailing newline).
std::string format_job_record(const JobRecord& record);

/// Serializes one service outcome as a single JSON line (no trailing
/// newline). `include_ranking` controls whether the (possibly long)
/// ranking array is emitted for ranked outcomes.
std::string format_job_result(const service::JobResult& result,
                              bool include_ranking = true);

/// File-level conveniences.
std::vector<JobRecord> load_job_records(const std::string& path);

}  // namespace crowdrank::io
