#include "rt/checkpoint.hpp"

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>

#include "rt/fault.hpp"
#include "rt/file_ops.hpp"
#include "util/check.hpp"

namespace ovo::rt {

namespace {

constexpr char kMagic[8] = {'O', 'V', 'O', 'C', 'K', 'P', 'T', '\0'};

[[noreturn]] void io_error(const std::string& what) {
  throw CheckpointError(CheckpointErrorKind::kIo,
                        what + ": " + std::strerror(errno));
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Spelled out (not looped) so compilers fold it into one load on a
/// little-endian host — it sits in crc32's inner loop.
std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

/// a(x)·b(x) modulo the CRC polynomial, both in the reflected bit order
/// crc32 uses (bit 31 holds x^0).
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = std::uint32_t{1} << 31;
  std::uint32_t p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

/// x^(2^k) modulo the polynomial for k = 0..31.  The multiplicative
/// order of x divides 2^32 − 1, so x^(2^(k+32)) = x^(2^k) and the table
/// wraps.
const std::uint32_t* x2n_table() {
  static const std::array<std::uint32_t, 32> table = [] {
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = std::uint32_t{1} << 30;  // x^1
    t[0] = p;
    for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
    return t;
  }();
  return table.data();
}

// ---------------------------------------------------------------------------
// Hooked FileOps wrappers.  Every primary-path filesystem operation fires
// its fault site first; an injected fault simulates EIO without touching
// the backend, so the call site's normal error handling carries it out as
// CheckpointError(kIo).  Cleanup operations (the unlink/close performed
// while already unwinding from an error) deliberately bypass the hooks and
// ignore failures: the original typed error must surface, and unwinding
// must never throw again.

int hooked_open_write(FileOps& fs, const char* path) {
  if (fault_fileop_hook(FaultSite::kFileOpen)) {
    errno = EIO;
    return -1;
  }
  return fs.open_write(path);
}

int hooked_open_read(FileOps& fs, const char* path) {
  if (fault_fileop_hook(FaultSite::kFileOpen)) {
    errno = EIO;
    return -1;
  }
  return fs.open_read(path);
}

::ssize_t hooked_write(FileOps& fs, int fd, const void* data,
                       std::size_t len) {
  if (fault_fileop_hook(FaultSite::kFileWrite)) {
    errno = EIO;
    return -1;
  }
  return fs.write(fd, data, len);
}

::ssize_t hooked_read(FileOps& fs, int fd, void* buf, std::size_t len) {
  if (fault_fileop_hook(FaultSite::kFileRead)) {
    errno = EIO;
    return -1;
  }
  return fs.read(fd, buf, len);
}

int hooked_fsync(FileOps& fs, int fd) {
  if (fault_fileop_hook(FaultSite::kFileFsync)) {
    errno = EIO;
    return -1;
  }
  return fs.fsync(fd);
}

/// The fd is really closed either way (leaving it open on an injected
/// failure would leak it); injection only overrides the reported result,
/// matching POSIX close() whose fd state is gone even on error.
int hooked_close(FileOps& fs, int fd) {
  int rc = fs.close(fd);
  if (fault_fileop_hook(FaultSite::kFileClose)) {
    errno = EIO;
    rc = -1;
  }
  return rc;
}

int hooked_rename(FileOps& fs, const char* from, const char* to) {
  if (fault_fileop_hook(FaultSite::kFileRename)) {
    errno = EIO;
    return -1;
  }
  return fs.rename(from, to);
}

/// Error-path cleanup: drop the temp file and its fd without firing hooks
/// and without caring about the result — the caller is about to throw the
/// real error.
void discard_tmp(FileOps& fs, int fd, const std::string& tmp) {
  if (fd >= 0) fs.close(fd);
  fs.unlink(tmp.c_str());
}

}  // namespace

const char* checkpoint_error_name(CheckpointErrorKind kind) {
  switch (kind) {
    case CheckpointErrorKind::kIo:
      return "checkpoint io error";
    case CheckpointErrorKind::kTruncated:
      return "checkpoint truncated";
    case CheckpointErrorKind::kBadMagic:
      return "checkpoint bad magic";
    case CheckpointErrorKind::kVersionSkew:
      return "checkpoint version skew";
    case CheckpointErrorKind::kBadLength:
      return "checkpoint bad length";
    case CheckpointErrorKind::kCrcMismatch:
      return "checkpoint crc mismatch";
    case CheckpointErrorKind::kMalformed:
      return "checkpoint malformed";
    case CheckpointErrorKind::kWrongInstance:
      return "checkpoint wrong instance";
  }
  return "checkpoint error";
}

std::uint32_t crc32(const void* data, std::size_t len) {
  // Slice-by-8 over the IEEE 802.3 reflected polynomial.  t[0] is the
  // classic bytewise table; t[k][b] advances t[k-1][b] by one more zero
  // byte, so one step folds eight bytes with eight independent lookups
  // and yields exactly the bytewise algorithm's register.  Built once on
  // first use.
  struct CrcTables {
    std::uint32_t t[8][256];
  };
  static const CrcTables tables = [] {
    CrcTables c{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t r = i;
      for (int k = 0; k < 8; ++k)
        r = (r & 1) != 0 ? kCrcPoly ^ (r >> 1) : r >> 1;
      c.t[0][i] = r;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (int k = 1; k < 8; ++k)
        c.t[k][i] = (c.t[k - 1][i] >> 8) ^ c.t[0][c.t[k - 1][i] & 0xFFu];
    return c;
  }();
  const auto& t = tables.t;
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = crc ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // x^(8·len_b) by square-and-multiply over len_b's bits, starting at
  // x^(2^3) = x^8 for one byte.
  const std::uint32_t* x2n = x2n_table();
  std::uint32_t shift = std::uint32_t{1} << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k)
    if ((len_b & 1) != 0) shift = multmodp(x2n[k & 31], shift);
  return multmodp(shift, crc_a) ^ crc_b;
}

void ByteWriter::bytes(const void* data, std::size_t len) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

void ByteWriter::overwrite(std::size_t offset, const void* data,
                           std::size_t len) {
  OVO_CHECK_MSG(offset <= buf_.size() && len <= buf_.size() - offset,
                "ByteWriter::overwrite past the written bytes");
  std::memcpy(buf_.data() + offset, data, len);
}

void ByteReader::need(std::size_t n) {
  if (len_ - pos_ < n)
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "payload field runs past the end of the data");
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (remaining() < n)
    throw CheckpointError(CheckpointErrorKind::kBadLength,
                          "string length exceeds remaining payload");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void ByteReader::need_array(std::size_t count, std::size_t elem_size) {
  if (count > remaining() / elem_size)
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "payload field runs past the end of the data");
}

std::uint64_t ByteReader::array_count(std::size_t elem_size) {
  const std::uint64_t count = u64();
  // Validate before any allocation: a corrupt count must not drive a
  // multi-gigabyte reserve.
  if (elem_size != 0 &&
      count > static_cast<std::uint64_t>(remaining()) / elem_size)
    throw CheckpointError(CheckpointErrorKind::kBadLength,
                          "array count exceeds remaining payload");
  return count;
}

void write_file_atomic(const std::string& path, const void* data,
                       std::size_t len) {
  FileOps& fs = file_ops();
  const std::string tmp = path + ".tmp";
  const int fd = hooked_open_write(fs, tmp.c_str());
  if (fd < 0) io_error("open '" + tmp + "'");
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ::ssize_t w = hooked_write(fs, fd, p + off, len - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      discard_tmp(fs, fd, tmp);
      io_error("write '" + tmp + "'");
    }
    off += static_cast<std::size_t>(w);
  }
  if (hooked_fsync(fs, fd) != 0) {
    discard_tmp(fs, fd, tmp);
    io_error("fsync '" + tmp + "'");
  }
  if (hooked_close(fs, fd) != 0) {
    discard_tmp(fs, -1, tmp);
    io_error("close '" + tmp + "'");
  }
  if (hooked_rename(fs, tmp.c_str(), path.c_str()) != 0) {
    discard_tmp(fs, -1, tmp);
    io_error("rename '" + tmp + "' -> '" + path + "'");
  }
  // Make the rename itself durable.  A failure here is not fatal to
  // correctness (the rename is already atomic for readers), so ignore it
  // — but still fire the fsync site so crash simulation can cut here.
  if (!fault_fileop_hook(FaultSite::kFileFsync))
    fs.fsync_dir(dir_of(path).c_str());
}

namespace {

/// Opens `path` for reading and returns the fd; *size gets the file's
/// size.  Either failure is kIo.
int open_sized(FileOps& fs, const std::string& path, std::size_t* size) {
  const int fd = hooked_open_read(fs, path.c_str());
  if (fd < 0) io_error("open '" + path + "'");
  const ::off_t bytes = fs.file_size(fd);
  if (bytes < 0) {
    fs.close(fd);
    io_error("stat '" + path + "'");
  }
  *size = static_cast<std::size_t>(bytes);
  return fd;
}

/// Reads from `fd` into dst[0, len) until it is full or the file ends;
/// returns the bytes read.  A failed read closes the fd and is kIo.
std::size_t read_some(FileOps& fs, int fd, const std::string& path,
                      std::uint8_t* dst, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ::ssize_t r = hooked_read(fs, fd, dst + got, len - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      fs.close(fd);
      io_error("read '" + path + "'");
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

/// Fills `out`, sized by the caller to the bytes the file's size
/// promises, and reads on to the file's end: `out` is shrunk if the file
/// ends early and grows only if it holds more, so a file that keeps its
/// size is read into the one buffer, with one read past the end.
void read_to_end(FileOps& fs, int fd, const std::string& path,
                 std::vector<std::uint8_t>& out) {
  const std::size_t got = read_some(fs, fd, path, out.data(), out.size());
  if (got < out.size()) {
    out.resize(got);
    return;
  }
  std::uint8_t more[1 << 12];
  while (const std::size_t r = read_some(fs, fd, path, more, sizeof(more))) {
    out.insert(out.end(), more, more + r);
    if (r < sizeof(more)) break;
  }
}

/// Validates a frame's header and payload — magic, version within
/// [min_version, max_version], exact length, CRC — and returns the
/// version.  Every violation is a typed CheckpointError.
std::uint32_t check_frame(const std::uint8_t* header,
                          const std::uint8_t* payload, std::size_t len,
                          std::uint32_t min_version,
                          std::uint32_t max_version) {
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
    throw CheckpointError(CheckpointErrorKind::kBadMagic,
                          "data does not start with the checkpoint magic");
  const std::uint32_t version = get_u32(header + 8);
  if (version < min_version || version > max_version)
    throw CheckpointError(
        CheckpointErrorKind::kVersionSkew,
        "payload version " + std::to_string(version) +
            " outside supported [" + std::to_string(min_version) + ", " +
            std::to_string(max_version) + "]");
  const std::uint64_t declared = get_u64(header + 12);
  // The length field must match the bytes present exactly: an oversized
  // field means truncation-or-corruption, an undersized one means trailing
  // garbage — both are rejected rather than guessed at.
  if (declared != len)
    throw CheckpointError(CheckpointErrorKind::kBadLength,
                          "declared payload length " +
                              std::to_string(declared) + " != " +
                              std::to_string(len) + " bytes present");
  if (get_u32(header + 20) != crc32(payload, len))
    throw CheckpointError(CheckpointErrorKind::kCrcMismatch,
                          "payload bytes fail the stored CRC-32");
  return version;
}

[[noreturn]] void short_header() {
  throw CheckpointError(CheckpointErrorKind::kTruncated,
                        "data shorter than the checkpoint header");
}

}  // namespace

std::vector<std::uint8_t> read_file(const std::string& path) {
  FileOps& fs = file_ops();
  std::size_t size = 0;
  const int fd = open_sized(fs, path, &size);
  std::vector<std::uint8_t> out(size);
  read_to_end(fs, fd, path, out);
  // A close failure after a complete read cannot invalidate the bytes
  // already in memory; report nothing (the fd really is closed).
  hooked_close(fs, fd);
  return out;
}

void begin_frame(ByteWriter& frame) {
  frame.clear();
  frame.zeros(kFrameHeaderSize);
}

void seal_frame(ByteWriter& frame, std::uint32_t version,
                std::uint32_t payload_crc) {
  OVO_CHECK_MSG(frame.size() >= kFrameHeaderSize, "seal_frame: no frame begun");
  ByteWriter header;
  header.reserve(kFrameHeaderSize);
  header.bytes(kMagic, sizeof(kMagic));
  header.u32(version);
  header.u64(frame.size() - kFrameHeaderSize);
  header.u32(payload_crc);
  frame.overwrite(0, header.data().data(), kFrameHeaderSize);
}

void save_checkpoint(const std::string& path, std::uint32_t version,
                     const std::vector<std::uint8_t>& payload) {
  ByteWriter frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  begin_frame(frame);
  frame.bytes(payload.data(), payload.size());
  seal_frame(frame, version, crc32(payload.data(), payload.size()));
  write_file_atomic(path, frame.data().data(), frame.size());
}

CheckpointData parse_checkpoint(const std::uint8_t* data, std::size_t len,
                                std::uint32_t min_version,
                                std::uint32_t max_version) {
  if (len < kFrameHeaderSize) short_header();
  CheckpointData out;
  out.version = check_frame(data, data + kFrameHeaderSize,
                            len - kFrameHeaderSize, min_version, max_version);
  out.payload.assign(data + kFrameHeaderSize, data + len);
  return out;
}

CheckpointData load_checkpoint(const std::string& path,
                               std::uint32_t min_version,
                               std::uint32_t max_version) {
  // The header and the payload are read into buffers of their own, so
  // the payload lands in the one vector the caller receives: no second
  // copy, and no regrowth while reading.
  FileOps& fs = file_ops();
  std::size_t size = 0;
  const int fd = open_sized(fs, path, &size);
  std::uint8_t header[kFrameHeaderSize];
  if (read_some(fs, fd, path, header, sizeof(header)) < sizeof(header)) {
    hooked_close(fs, fd);
    short_header();
  }
  CheckpointData out;
  out.payload.resize(size > kFrameHeaderSize ? size - kFrameHeaderSize : 0);
  read_to_end(fs, fd, path, out.payload);
  hooked_close(fs, fd);
  try {
    out.version = check_frame(header, out.payload.data(), out.payload.size(),
                              min_version, max_version);
  } catch (const CheckpointError& e) {
    if (e.kind() == CheckpointErrorKind::kBadMagic)
      throw CheckpointError(CheckpointErrorKind::kBadMagic,
                            "'" + path + "' is not a checkpoint file");
    throw;
  }
  return out;
}

}  // namespace ovo::rt
