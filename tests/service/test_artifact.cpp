// The versioned artifact codec (service/artifact.hpp): the RankedResult
// round trip, the byte-exact golden file pinning the on-disk format, and
// the structured-rejection matrix (truncation, bit flips, version bumps,
// kind confusion, payload garbage, forged list counts). Readers must never
// throw: every corruption comes back as an ArtifactError.
//
// The golden file lives in tests/data/ and is compared byte-for-byte: the
// format is persistence (the result cache's disk tier reads it), so "same
// logical value, different bytes" is a breaking change. Regenerate
// deliberately with CROWDRANK_UPDATE_GOLDEN=1 (and bump
// kRankedResultSchema when the layout really changed).
#include "service/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

namespace crowdrank::service::artifact {
namespace {

namespace fs = std::filesystem;

// -- fixtures ------------------------------------------------------------

RankedResult sample_result() {
  RankedResult result;
  result.outcome = JobOutcome::Degraded;
  result.stage = PipelineStage::Done;
  result.reason = "partial ranking";
  result.ranking.order = {3, 0, 2};
  result.ranking.excluded = {1};
  result.hardening.input_votes = 10;
  result.hardening.retained_votes = 8;
  result.hardening.dropped_out_of_range = 1;
  result.hardening.dropped_self = 1;
  result.log_probability = -2.5;
  return result;
}

constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kChecksumSize = 8;

/// The payload bytes of a framed artifact.
std::string payload_of(const std::string& frame_bytes) {
  return frame_bytes.substr(kHeaderSize,
                            frame_bytes.size() - kHeaderSize - kChecksumSize);
}

std::string u32le(std::uint32_t value) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
  return out;
}

std::string u64le(std::uint64_t value) {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
  return out;
}

/// A RankedResult payload up to (excluding) the ranking order list:
/// outcome, stage, and an empty reason string.
std::string result_payload_prefix() {
  return u32le(static_cast<std::uint32_t>(JobOutcome::Completed)) +
         u32le(static_cast<std::uint32_t>(PipelineStage::Done)) + u64le(0);
}

ErrorCode decode_code(const std::string& payload) {
  return decode_result(
             detail::frame(Kind::RankedResult, kRankedResultSchema, payload))
      .error.code;
}

// -- round trips ---------------------------------------------------------

TEST(Artifact, RankedResultRoundTrips) {
  // The default result has an empty reason and empty id lists.
  for (const RankedResult& result : {sample_result(), RankedResult{}}) {
    const Result<RankedResult> back = decode_result(encode(result));
    ASSERT_TRUE(back.ok()) << back.error.to_string();
    EXPECT_EQ(*back.value, result);
  }
}

TEST(Artifact, EncodingIsDeterministic) {
  EXPECT_EQ(encode(sample_result()), encode(sample_result()));
}

// -- golden file: the bytes ARE the format -------------------------------

std::string golden_path() {
  return (fs::path(CROWDRANK_TEST_DATA_DIR) / "ranked_result.crart").string();
}

TEST(ArtifactGolden, RankedResultBytesArePinned) {
  const std::string bytes = encode(sample_result());
  if (std::getenv("CROWDRANK_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.good()) << "cannot write golden " << golden_path();
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return;
  }
  const Result<std::string> stored = read_file(golden_path());
  ASSERT_TRUE(stored.ok())
      << stored.error.to_string()
      << " (regenerate with CROWDRANK_UPDATE_GOLDEN=1)";
  EXPECT_EQ(bytes, *stored.value)
      << "encoded bytes diverged from the golden file — this is an on-disk "
      << "format change; bump the schema version";
}

TEST(ArtifactGolden, GoldenFileStillDecodes) {
  // The stored bytes must decode with today's reader (not just match
  // today's writer): this is the backward-compatibility half of the pin.
  const Result<std::string> bytes = read_file(golden_path());
  ASSERT_TRUE(bytes.ok()) << bytes.error.to_string();
  const Result<RankedResult> result = decode_result(*bytes.value);
  ASSERT_TRUE(result.ok()) << result.error.to_string();
  EXPECT_EQ(*result.value, sample_result());
}

// -- structured rejection ------------------------------------------------

TEST(ArtifactReject, TooSmall) {
  EXPECT_EQ(decode_result("").error.code, ErrorCode::TooSmall);
  EXPECT_EQ(decode_result("CRAF").error.code, ErrorCode::TooSmall);
}

TEST(ArtifactReject, BadMagic) {
  std::string bytes = encode(sample_result());
  bytes[0] = 'X';
  EXPECT_EQ(decode_result(bytes).error.code, ErrorCode::BadMagic);
}

TEST(ArtifactReject, TruncationAtEveryPrefix) {
  // Any strict prefix must be rejected (never misread, never thrown).
  const std::string bytes = encode(sample_result());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const Result<RankedResult> back = decode_result(bytes.substr(0, len));
    EXPECT_FALSE(back.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_NE(back.error.code, ErrorCode::None);
  }
}

TEST(ArtifactReject, EveryBitFlipIsCaught) {
  // Flip one bit at every byte position: the checksum (or an earlier
  // header check) must reject each one. This is the corruption contract
  // of the result cache's disk tier.
  const std::string original = encode(sample_result());
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    std::string corrupted = original;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    const Result<RankedResult> back = decode_result(corrupted);
    EXPECT_FALSE(back.ok()) << "bit flip at byte " << pos << " decoded";
  }
}

TEST(ArtifactReject, FutureFormatVersion) {
  // The format version is checked before the checksum: a reader that sees
  // a future frame revision says so, instead of reporting corruption
  // (the future writer may checksum differently).
  std::string bytes = encode(sample_result());
  bytes[4] = static_cast<char>(kFormatVersion + 1);  // little-endian u32
  EXPECT_EQ(decode_result(bytes).error.code, ErrorCode::BadFormatVersion);
}

TEST(ArtifactReject, FutureSchemaVersion) {
  // A validly framed result of a schema revision this reader does not
  // know: checksum passes, schema is rejected.
  const std::string bytes =
      detail::frame(Kind::RankedResult, kRankedResultSchema + 1,
                    payload_of(encode(sample_result())));
  EXPECT_EQ(decode_result(bytes).error.code, ErrorCode::BadSchemaVersion);
}

TEST(ArtifactReject, WrongKind) {
  // A validly checksummed frame of any other kind — a retired one or one
  // from the future — never reaches the result payload parser.
  const std::string payload = payload_of(encode(sample_result()));
  for (const std::uint32_t kind : {1u, 5u, 7u}) {
    const std::string bytes =
        detail::frame(static_cast<Kind>(kind), kRankedResultSchema, payload);
    EXPECT_EQ(decode_result(bytes).error.code, ErrorCode::WrongKind)
        << "kind " << kind;
  }
}

TEST(ArtifactReject, BadPayload) {
  // Validly framed garbage: an outcome value past the enum, and a payload
  // that stops after the header fields.
  std::string payload = payload_of(encode(sample_result()));
  payload.replace(0, 4, u32le(99));
  EXPECT_EQ(decode_code(payload), ErrorCode::BadPayload);
  EXPECT_EQ(decode_code(result_payload_prefix()), ErrorCode::BadPayload);
}

TEST(ArtifactReject, TrailingBytes) {
  // Extra bytes after the checksum are a frame size mismatch, and extra
  // bytes inside a validly checksummed payload are a payload size
  // mismatch; neither is silently ignored.
  std::string bytes = encode(sample_result());
  bytes += "extra";
  EXPECT_EQ(decode_result(bytes).error.code, ErrorCode::Truncated);
  EXPECT_EQ(decode_code(payload_of(encode(sample_result())) + "x"),
            ErrorCode::BadPayload);
}

TEST(ArtifactReject, ForgedIdListCountIsRejected) {
  // A validly checksummed frame (the checksum seed is public) whose id
  // list declares far more entries than the payload holds must come back
  // as BadPayload before any list is sized from the forged count. 2^61
  // entries is 2^64 bytes, so a count * 8 bounds check would wrap to 0.
  for (const std::uint64_t count :
       {std::numeric_limits<std::uint64_t>::max(), std::uint64_t{1} << 61,
        std::uint64_t{4}}) {
    // The ranking order list, with three ids actually present.
    EXPECT_EQ(decode_code(result_payload_prefix() + u64le(count) +
                          u64le(0) + u64le(1) + u64le(2)),
              ErrorCode::BadPayload)
        << "order count " << count;
    // The hardening report's excluded-object list, the last list.
    std::string payload = result_payload_prefix() + u64le(0) + u64le(0);
    for (int field = 0; field < 9; ++field) {
      payload += u64le(0);
    }
    payload += u64le(count);
    EXPECT_EQ(decode_code(payload), ErrorCode::BadPayload)
        << "excluded count " << count;
  }
}

// -- file tier -----------------------------------------------------------

TEST(ArtifactFile, WriteReadRoundTrips) {
  const fs::path dir =
      fs::temp_directory_path() / "crowdrank_artifact_test";
  fs::create_directories(dir);
  const std::string path = (dir / "roundtrip.crart").string();
  const std::string bytes = encode(sample_result());
  ASSERT_FALSE(write_file(path, bytes).has_value());
  const Result<std::string> back = read_file(path);
  ASSERT_TRUE(back.ok()) << back.error.to_string();
  EXPECT_EQ(*back.value, bytes);
  // No .tmp residue: the write is rename-into-place.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(ArtifactFile, MissingFileIsIoError) {
  const Result<std::string> back =
      read_file("/nonexistent/crowdrank/artifact.crart");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error.code, ErrorCode::IoError);
}

TEST(ArtifactFile, EnsureDirectoryCreatesNestedPaths) {
  const fs::path dir = fs::temp_directory_path() /
                       "crowdrank_artifact_test_nested" / "a" / "b";
  fs::remove_all(dir.parent_path().parent_path());
  EXPECT_FALSE(ensure_directory(dir.string()).has_value());
  EXPECT_TRUE(fs::is_directory(dir));
  fs::remove_all(dir.parent_path().parent_path());
}

}  // namespace
}  // namespace crowdrank::service::artifact
