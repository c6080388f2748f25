// Versioned binary artifacts: the persistence format of the serving layer.
//
// A finished ranking result (`RankedResult`) can be written as a
// self-describing framed artifact and read back in another process, which
// is what makes the result cache's disk tier and `crowdrank index` /
// `crowdrank query` possible.
//
// Frame layout (all integers little-endian, fixed width):
//
//     offset  size  field
//          0     4  magic "CRAF"
//          4     4  format version (kFormatVersion)
//          8     4  artifact kind (Kind)
//         12     4  per-kind payload schema version
//         16     8  payload size in bytes
//         24     N  payload (kind-specific, see artifact.cpp)
//       24+N     8  checksum: StableHash64 over bytes [4, 24 + N)
//
// Content is build-stamp independent: no timestamps, hostnames, versions
// of the writing binary, or pointers ever enter a frame, so the same
// logical value encodes to the same bytes forever (the golden file in
// tests/data/ pins this byte-exactly).
//
// Error contract: readers never throw. Every corruption — short reads,
// wrong magic, a future format or schema version, a flipped bit caught by
// the checksum, malformed payloads — comes back as a structured
// `ArtifactError` inside `Result<T>`. Writers never fail short of the
// filesystem; `write_file` reports IO problems the same structured way
// and writes atomically (temp file + rename), so a crashed writer can
// never leave a half-written artifact under the final name.
//
// This module is the single sanctioned filesystem-writing site inside
// src/service/ — the `fs-write-in-service` lint rule holds every other
// service source to that.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/job.hpp"

namespace crowdrank::service::artifact {

inline constexpr std::uint32_t kFormatVersion = 1;

/// What a frame carries. Values are stable on-disk identifiers (1-5 are
/// retired and must not be reused).
enum class Kind : std::uint32_t {
  RankedResult = 6,
};

/// Payload schema version of RankedResult frames: bump it when the payload
/// layout changes, and old frames are rejected (BadSchemaVersion) instead
/// of being misread.
inline constexpr std::uint32_t kRankedResultSchema = 1;

enum class ErrorCode : std::uint32_t {
  None = 0,
  TooSmall,          ///< shorter than the fixed frame overhead
  BadMagic,          ///< not an artifact file
  BadFormatVersion,  ///< written by an incompatible format revision
  Truncated,         ///< declared payload size disagrees with the bytes
  ChecksumMismatch,  ///< bytes corrupted after writing
  WrongKind,         ///< valid frame, but not the requested artifact kind
  BadSchemaVersion,  ///< payload layout revision this reader cannot parse
  BadPayload,        ///< checksum passed but the payload violates its spec
  IoError,           ///< filesystem-level read/write failure
};

const char* error_code_name(ErrorCode code);

/// One structured artifact failure. `code == None` means no error.
struct ArtifactError {
  ErrorCode code = ErrorCode::None;
  std::string detail;

  bool ok() const { return code == ErrorCode::None; }
  /// "checksum_mismatch: stored 0x... != computed 0x..." rendering.
  std::string to_string() const;
};

/// Decode outcome: exactly one of `value` / `error` is meaningful.
template <typename T>
struct Result {
  std::optional<T> value;
  ArtifactError error;

  bool ok() const { return value.has_value(); }
};

/// An `api::Response`-shaped finished result: the deterministic payload a
/// warm cache hit must reproduce bitwise. Volatile observations (timings,
/// queue latencies) are deliberately absent — they describe a run, not
/// the answer — as is the step-diagnostics InferenceResult, which callers
/// wanting engine internals recompute with CacheControl::Bypass.
struct RankedResult {
  JobOutcome outcome = JobOutcome::Failed;
  PipelineStage stage = PipelineStage::Validation;
  std::string reason;
  PartialRanking ranking;  ///< original object ids
  HardeningReport hardening;
  double log_probability = 0.0;

  friend bool operator==(const RankedResult&, const RankedResult&) = default;
};

/// Infallible: any in-memory value frames cleanly.
std::string encode(const RankedResult& result);

/// Never throws; every rejection is structured.
Result<RankedResult> decode_result(std::string_view bytes);

// -- file tier -----------------------------------------------------------

/// Atomic write: the bytes land under `path + ".tmp"` first and are
/// renamed into place, so readers never observe a partial artifact.
/// Engaged return = failure.
std::optional<ArtifactError> write_file(const std::string& path,
                                        std::string_view bytes);

/// Whole-file read. Missing or unreadable files are IoError (the caller
/// decides whether that is a cache miss or a hard failure).
Result<std::string> read_file(const std::string& path);

/// Creates `path` (and parents) if missing. Engaged return = failure.
/// Lives here so directory setup stays inside the sanctioned
/// filesystem-writing module.
std::optional<ArtifactError> ensure_directory(const std::string& path);

namespace detail {
/// Frames an arbitrary payload (tests use this to forge kind/schema
/// combinations with valid checksums; the encoder uses it internally).
std::string frame(Kind kind, std::uint32_t schema, std::string_view payload);
}  // namespace detail

}  // namespace crowdrank::service::artifact
