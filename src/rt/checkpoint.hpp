#pragma once
// Durable checkpoint framing (ovo::rt) — the container format under every
// snapshot the solver stack persists.
//
// The exact Friedman–Supowit DP is O*(3^n): at n = 13+ a run holds
// minutes-to-hours of irreplaceable layer state, and the governor
// (budget.hpp) can only degrade a run it is alive to observe.  A durable
// snapshot lets a production service preempt, migrate, or crash a run and
// resume it bit-identically.  This header owns the *container*: framing,
// integrity, and atomic replacement.  What goes inside a payload is the
// producer's business (core/fs_checkpoint.hpp for the DP state).
//
// On-disk layout (all integers little-endian):
//
//   [ 8 bytes ] magic "OVOCKPT\0"
//   [ u32     ] payload format version
//   [ u64     ] payload length in bytes (must equal file size - 24)
//   [ u32     ] CRC-32 (IEEE) of the payload bytes
//   [ ...     ] payload
//
// Load-side robustness is half the feature: every malformed input — a
// short read, a flipped bit, a version from the future, a length field
// pointing past the file — must surface as a typed CheckpointError, never
// as UB or a silent wrong result.  ByteReader bounds-checks every access,
// so payload decoders built on it inherit that guarantee; anything the
// CRC happens to pass must still be semantically validated by the
// decoder (kMalformed / kWrongInstance).
//
// Writes are crash-atomic: payload to `path + ".tmp"`, fsync, rename over
// `path`, fsync the directory.  A reader never observes a half-written
// snapshot — it sees the old file or the new one.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace ovo::rt {

/// Why a checkpoint could not be read (or written).  Every failure mode
/// in the torture corpus maps to exactly one kind.
enum class CheckpointErrorKind : std::uint8_t {
  kIo = 1,            ///< open/read/write/fsync/rename failed
  kTruncated,         ///< file (or a field) ends before its declared size
  kBadMagic,          ///< leading bytes are not the checkpoint magic
  kVersionSkew,       ///< payload version outside the supported range
  kBadLength,         ///< a length field disagrees with the bytes present
  kCrcMismatch,       ///< payload bytes fail the stored CRC-32
  kMalformed,         ///< framing valid, payload semantically inconsistent
  kWrongInstance,     ///< snapshot fingerprint does not match this run
};

const char* checkpoint_error_name(CheckpointErrorKind kind);

/// Typed checkpoint failure.  Catchable above std::exception so callers
/// (the CLI, the resume paths) can distinguish "corrupt snapshot" from
/// "bug" and report the kind.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& what)
      : std::runtime_error(std::string(checkpoint_error_name(kind)) + ": " +
                           what),
        kind_(kind) {}
  CheckpointErrorKind kind() const { return kind_; }

 private:
  CheckpointErrorKind kind_;
};

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `len` bytes.
/// Slice-by-8: eight bytes per step through eight derived tables, so the
/// snapshot CRC runs near memory speed; the values are those of the
/// bytewise table-driven algorithm.
std::uint32_t crc32(const void* data, std::size_t len);

/// CRC-32 of the concatenation A‖B from crc_a = crc32(A), crc_b =
/// crc32(B) and len_b = |B| (zlib's GF(2) method: crc_a times x^(8·len_b)
/// modulo the polynomial, then XOR crc_b), in O(log len_b) steps.  Lets
/// independent pieces of one buffer be checksummed in parallel and folded
/// in order to exactly crc32 of the whole.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

/// Little-endian append-only payload builder.  Produced bytes are a pure
/// function of the appended values (no map-iteration or pointer order
/// leaks in), so identical state encodes to identical bytes — which makes
/// snapshot files diffable and CRC-stable across runs.
class ByteWriter {
 public:
  /// Pre-sizes the buffer for `total` bytes, so a caller that knows its
  /// payload size appends without regrowth.
  void reserve(std::size_t total) { buf_.reserve(total); }
  /// Drops the contents and keeps the capacity, so a writer reused for
  /// one frame after another stops allocating once it has held the
  /// largest.
  void clear() { buf_.clear(); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 24)};
    buf_.insert(buf_.end(), b, b + 4);
  }
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), b, b + 8);
  }
  void bytes(const void* data, std::size_t len);
  /// Appends `len` zero bytes.
  void zeros(std::size_t len) { buf_.resize(buf_.size() + len); }
  /// Appends `count` unsigned values of sizeof(T) bytes each (u8, u16 or
  /// u32), little-endian — in one memcpy on a little-endian host.
  template <typename T>
  void uint_array(const T* values, std::size_t count) {
    static_assert(std::is_unsigned_v<T> && sizeof(T) <= 4);
    if constexpr (std::endian::native == std::endian::little) {
      bytes(values, count * sizeof(T));
    } else {
      for (std::size_t i = 0; i < count; ++i)
        for (std::size_t b = 0; b < sizeof(T); ++b)
          u8(static_cast<std::uint8_t>(values[i] >> (8 * b)));
    }
  }
  /// u32 length prefix + raw bytes.
  void str(const std::string& s);
  /// Replaces the already-written bytes [offset, offset + len).
  void overwrite(std::size_t offset, const void* data, std::size_t len);

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer.  Every
/// read past the end throws CheckpointError(kTruncated); array counts are
/// validated against the bytes actually remaining *before* any allocation
/// (kBadLength), so an oversized length field cannot drive an OOM.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }
  std::string str();
  /// Reads `count` little-endian unsigned values of sizeof(T) bytes into
  /// `out`, after one bounds check (kTruncated), in one memcpy on a
  /// little-endian host (ByteWriter::uint_array's counterpart).
  template <typename T>
  void uint_array(T* out, std::size_t count) {
    static_assert(std::is_unsigned_v<T> && sizeof(T) <= 4);
    need_array(count, sizeof(T));
    if (count == 0) return;  // `out` may be null
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_ + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        T v = 0;
        for (std::size_t b = 0; b < sizeof(T); ++b)
          v = static_cast<T>(v | static_cast<T>(data_[pos_++]) << (8 * b));
        out[i] = v;
      }
    }
  }

  /// Validates `count * elem_size <= remaining` and returns count.
  std::uint64_t array_count(std::size_t elem_size);

  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

 private:
  void need(std::size_t n);
  /// Throws kTruncated unless `count` elements of `elem_size` remain.
  void need_array(std::size_t count, std::size_t elem_size);

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// Writes `len` bytes to `path` crash-atomically: temp file in the same
/// directory, fsync, rename, directory fsync.  Throws
/// CheckpointError(kIo) on any failure (the temp file is removed).
void write_file_atomic(const std::string& path, const void* data,
                       std::size_t len);

/// Whole-file read into a buffer sized once from the file's size; throws
/// CheckpointError(kIo) when the file cannot be opened or read.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Bytes of the container header in front of every payload.
inline constexpr std::size_t kFrameHeaderSize = 8 + 4 + 8 + 4;

/// Starts a frame in place: clears `frame` (keeping its capacity) and
/// appends kFrameHeaderSize zero bytes for seal_frame to fill.  The
/// producer then appends its payload directly after them, so the payload
/// is never copied into a second buffer.
void begin_frame(ByteWriter& frame);

/// Fills the header begun by begin_frame: magic, `version`, the payload
/// length (everything after the header) and `payload_crc`, which must be
/// crc32 of the payload — the caller computes it, serially or in
/// crc32_combine-folded pieces.
void seal_frame(ByteWriter& frame, std::uint32_t version,
                std::uint32_t payload_crc);

/// Frames `payload` (magic/version/length/CRC header) and writes it
/// atomically to `path`.  A copying convenience over begin_frame /
/// seal_frame / write_file_atomic; producers that write many large
/// frames encode into one reused frame instead.
void save_checkpoint(const std::string& path, std::uint32_t version,
                     const std::vector<std::uint8_t>& payload);

struct CheckpointData {
  std::uint32_t version = 0;
  std::vector<std::uint8_t> payload;
};

/// Validates an in-memory framed checkpoint image: magic, version within
/// [min_version, max_version], exact length, CRC.  Every violation is a
/// typed CheckpointError; the returned payload is byte-verified.  This
/// is the pure decode half of load_checkpoint (and the fuzz frontier's
/// entry point — it must hold against arbitrary bytes).
CheckpointData parse_checkpoint(const std::uint8_t* data, std::size_t len,
                                std::uint32_t min_version,
                                std::uint32_t max_version);

/// Reads `path` and validates it as parse_checkpoint does, with the same
/// errors.  The file is read once: its header into a buffer of its own
/// and its payload into CheckpointData::payload, sized from the file's
/// size, so the payload is never copied.
CheckpointData load_checkpoint(const std::string& path,
                               std::uint32_t min_version,
                               std::uint32_t max_version);

}  // namespace ovo::rt
