#include "service/artifact.hpp"

#include <bit>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace crowdrank::service::artifact {

namespace {

constexpr std::size_t kHeaderSize = 24;  // magic + 3 * u32 + u64
constexpr std::size_t kChecksumSize = 8;
constexpr std::size_t kMinFrameSize = kHeaderSize + kChecksumSize;
/// Separates frame checksums from every other StableHash key space.
constexpr std::uint64_t kChecksumSeed = 0x43524146;  // "CRAF"

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(value >> shift) & 0xf]);
  }
  return out;
}

// -- little-endian primitives -------------------------------------------

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

void put_string(std::string& out, std::string_view value) {
  put_u64(out, value.size());
  out.append(value);
}

/// Bounds-checked payload cursor. Any overrun latches `failed` and makes
/// every later read return zero, so decoders can parse straight through
/// and check once at the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool failed() const { return failed_; }
  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// True when `count` elements of `elem_size` bytes can still be read —
  /// the guard that keeps a forged length field from driving a huge
  /// reserve() before the truncation is noticed.
  bool can_take(std::uint64_t count, std::size_t elem_size) const {
    return !failed_ && count <= remaining() / elem_size;
  }

  std::uint32_t take_u32() {
    std::uint32_t value = 0;
    if (pos_ + 4 > data_.size()) {
      failed_ = true;
      pos_ = data_.size();
      return 0;
    }
    for (int i = 3; i >= 0; --i) {
      value = (value << 8) |
              static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 4;
    return value;
  }

  std::uint64_t take_u64() {
    std::uint64_t value = 0;
    if (pos_ + 8 > data_.size()) {
      failed_ = true;
      pos_ = data_.size();
      return 0;
    }
    for (int i = 7; i >= 0; --i) {
      value = (value << 8) |
              static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 8;
    return value;
  }

  double take_f64() { return std::bit_cast<double>(take_u64()); }

  std::string take_string() {
    const std::uint64_t size = take_u64();
    if (!can_take(size, 1)) {
      failed_ = true;
      return {};
    }
    std::string out(data_.substr(pos_, size));
    pos_ += size;
    return out;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

std::uint64_t frame_checksum(std::string_view frame_bytes) {
  // Over everything after the magic and before the checksum itself, so
  // version/kind/schema tampering is caught as corruption too.
  StableHash hash(kChecksumSeed);
  hash.add_bytes(frame_bytes.data() + 4, frame_bytes.size() - 4 - kChecksumSize);
  return hash.digest64();
}

/// The frame gate in its pinned check order: size, magic, format version,
/// truncation, checksum, kind, schema. On success `payload` views the
/// kind-specific bytes; on failure `error` says why.
bool open_payload(std::string_view bytes, Kind kind, std::uint32_t schema,
                  ArtifactError& error, std::string_view& payload) {
  if (bytes.size() < kMinFrameSize) {
    error = {ErrorCode::TooSmall,
             "frame is " + std::to_string(bytes.size()) +
                 " bytes; minimum is " + std::to_string(kMinFrameSize)};
    return false;
  }
  if (bytes.substr(0, 4) != std::string_view("CRAF", 4)) {
    error = {ErrorCode::BadMagic, "magic bytes are not \"CRAF\""};
    return false;
  }
  Reader header(bytes.substr(4, kHeaderSize - 4));
  const std::uint32_t format_version = header.take_u32();
  const std::uint32_t kind_value = header.take_u32();
  const std::uint32_t frame_schema = header.take_u32();
  const std::uint64_t payload_size = header.take_u64();
  if (format_version != kFormatVersion) {
    error = {ErrorCode::BadFormatVersion,
             "format version " + std::to_string(format_version) +
                 "; this reader understands " +
                 std::to_string(kFormatVersion)};
    return false;
  }
  if (payload_size != bytes.size() - kMinFrameSize) {
    error = {ErrorCode::Truncated,
             "declared payload of " + std::to_string(payload_size) +
                 " bytes, frame carries " +
                 std::to_string(bytes.size() - kMinFrameSize)};
    return false;
  }
  Reader trailer(bytes.substr(bytes.size() - kChecksumSize));
  const std::uint64_t stored = trailer.take_u64();
  const std::uint64_t computed = frame_checksum(bytes);
  if (stored != computed) {
    error = {ErrorCode::ChecksumMismatch,
             "stored " + hex64(stored) + " != computed " + hex64(computed)};
    return false;
  }
  if (kind_value != static_cast<std::uint32_t>(kind)) {
    error = {ErrorCode::WrongKind,
             "expected kind " +
                 std::to_string(static_cast<std::uint32_t>(kind)) +
                 ", frame is kind " + std::to_string(kind_value)};
    return false;
  }
  if (frame_schema != schema) {
    error = {ErrorCode::BadSchemaVersion,
             "schema " + std::to_string(frame_schema) +
                 "; this reader understands " + std::to_string(schema)};
    return false;
  }
  payload = bytes.substr(kHeaderSize, payload_size);
  return true;
}

ArtifactError bad_payload(std::string detail) {
  return {ErrorCode::BadPayload, std::move(detail)};
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::None:
      return "none";
    case ErrorCode::TooSmall:
      return "too_small";
    case ErrorCode::BadMagic:
      return "bad_magic";
    case ErrorCode::BadFormatVersion:
      return "bad_format_version";
    case ErrorCode::Truncated:
      return "truncated";
    case ErrorCode::ChecksumMismatch:
      return "checksum_mismatch";
    case ErrorCode::WrongKind:
      return "wrong_kind";
    case ErrorCode::BadSchemaVersion:
      return "bad_schema_version";
    case ErrorCode::BadPayload:
      return "bad_payload";
    case ErrorCode::IoError:
      return "io_error";
  }
  return "unknown";
}

std::string ArtifactError::to_string() const {
  std::string out = error_code_name(code);
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

namespace detail {

std::string frame(Kind kind, std::uint32_t schema, std::string_view payload) {
  std::string out;
  out.reserve(kMinFrameSize + payload.size());
  out.append("CRAF");
  put_u32(out, kFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(kind));
  put_u32(out, schema);
  put_u64(out, payload.size());
  out.append(payload);
  // Reserve the checksum slot so frame_checksum sees the final extents.
  put_u64(out, 0);
  const std::uint64_t checksum = frame_checksum(out);
  out.resize(out.size() - kChecksumSize);
  put_u64(out, checksum);
  return out;
}

}  // namespace detail

// -- RankedResult --------------------------------------------------------

namespace {

void put_ids(std::string& payload, const std::vector<VertexId>& ids) {
  put_u64(payload, ids.size());
  for (const VertexId id : ids) {
    put_u64(payload, id);
  }
}

bool take_ids(Reader& reader, std::vector<VertexId>* ids) {
  const std::uint64_t count = reader.take_u64();
  if (!reader.can_take(count, 8)) {
    return false;
  }
  ids->resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    (*ids)[i] = reader.take_u64();
  }
  return !reader.failed();
}

}  // namespace

std::string encode(const RankedResult& result) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(result.outcome));
  put_u32(payload, static_cast<std::uint32_t>(result.stage));
  put_string(payload, result.reason);
  put_ids(payload, result.ranking.order);
  put_ids(payload, result.ranking.excluded);
  const HardeningReport& h = result.hardening;
  put_u64(payload, h.input_votes);
  put_u64(payload, h.retained_votes);
  put_u64(payload, h.dropped_out_of_range);
  put_u64(payload, h.dropped_self);
  put_u64(payload, h.dropped_duplicate);
  put_u64(payload, h.dropped_conflicting);
  put_u64(payload, h.dropped_disconnected);
  put_u64(payload, h.requested_objects);
  put_u64(payload, h.component_count);
  put_ids(payload, h.excluded_objects);
  put_f64(payload, result.log_probability);
  return detail::frame(Kind::RankedResult, kRankedResultSchema, payload);
}

Result<RankedResult> decode_result(std::string_view bytes) {
  Result<RankedResult> out;
  std::string_view payload;
  if (!open_payload(bytes, Kind::RankedResult, kRankedResultSchema,
                    out.error, payload)) {
    return out;
  }
  Reader reader(payload);
  RankedResult result;
  const std::uint32_t outcome = reader.take_u32();
  const std::uint32_t stage = reader.take_u32();
  if (outcome > static_cast<std::uint32_t>(JobOutcome::Failed) ||
      stage > static_cast<std::uint32_t>(PipelineStage::Done)) {
    out.error = bad_payload("outcome or stage out of range");
    return out;
  }
  result.outcome = static_cast<JobOutcome>(outcome);
  result.stage = static_cast<PipelineStage>(stage);
  result.reason = reader.take_string();
  HardeningReport& h = result.hardening;
  if (!take_ids(reader, &result.ranking.order) ||
      !take_ids(reader, &result.ranking.excluded)) {
    out.error = bad_payload("ranking lists overrun the payload");
    return out;
  }
  h.input_votes = reader.take_u64();
  h.retained_votes = reader.take_u64();
  h.dropped_out_of_range = reader.take_u64();
  h.dropped_self = reader.take_u64();
  h.dropped_duplicate = reader.take_u64();
  h.dropped_conflicting = reader.take_u64();
  h.dropped_disconnected = reader.take_u64();
  h.requested_objects = reader.take_u64();
  h.component_count = reader.take_u64();
  if (!take_ids(reader, &h.excluded_objects)) {
    out.error = bad_payload("excluded-object list overruns the payload");
    return out;
  }
  result.log_probability = reader.take_f64();
  if (reader.failed() || !reader.exhausted()) {
    out.error = bad_payload("ranked result payload size disagrees");
    return out;
  }
  out.value = std::move(result);
  return out;
}

// -- file tier -----------------------------------------------------------

std::optional<ArtifactError> write_file(const std::string& path,
                                        std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return ArtifactError{ErrorCode::IoError, "cannot open " + tmp};
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      return ArtifactError{ErrorCode::IoError, "short write to " + tmp};
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return ArtifactError{ErrorCode::IoError,
                         "cannot rename into place: " + path};
  }
  return std::nullopt;
}

Result<std::string> read_file(const std::string& path) {
  Result<std::string> out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = {ErrorCode::IoError, "cannot open " + path};
    return out;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    out.error = {ErrorCode::IoError, "read failed for " + path};
    return out;
  }
  out.value = std::move(bytes);
  return out;
}

std::optional<ArtifactError> ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec || !std::filesystem::is_directory(path)) {
    return ArtifactError{ErrorCode::IoError,
                         "cannot create directory " + path};
  }
  return std::nullopt;
}

}  // namespace crowdrank::service::artifact
