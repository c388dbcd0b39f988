#include "rt/sim_fs.hpp"

#include <cerrno>
#include <cstring>

namespace ovo::rt {

SimFs::SimFs() : cut_() {}

SimFs::SimFs(CutPlan cut) : cut_(cut) {}

void SimFs::put(const std::string& path, std::vector<std::uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = std::move(bytes);
}

bool SimFs::exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) != 0;
}

std::vector<std::uint8_t> SimFs::get(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(path);
  return it != files_.end() ? it->second : std::vector<std::uint8_t>{};
}

std::vector<std::string> SimFs::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, bytes] : files_) out.push_back(path);
  return out;
}

std::uint64_t SimFs::ops_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

bool SimFs::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void SimFs::thaw() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
  cut_.at_op = 0;
  fds_.clear();
}

// Counts the operation; throws CrashCut at the cut point; returns false
// when frozen (the caller succeeds as a no-op).  Callers hold mu_.
bool SimFs::alive_op() {
  if (crashed_) return false;
  const std::uint64_t n = ++ops_;
  if (cut_.at_op != 0 && n == cut_.at_op) {
    crashed_ = true;
    throw CrashCut();
  }
  return true;
}

int SimFs::open_write(const char* path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return next_fd_++;  // frozen: fake fd, never tracked
  const int fd = next_fd_++;
  files_[path].clear();  // O_CREAT | O_TRUNC
  fds_[fd] = Handle{path, 0, true};
  return fd;
}

int SimFs::open_read(const char* path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return next_fd_++;
  if (files_.count(path) == 0) {
    errno = ENOENT;
    return -1;
  }
  const int fd = next_fd_++;
  fds_[fd] = Handle{path, 0, false};
  return fd;
}

::ssize_t SimFs::write(int fd, const void* data, std::size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return static_cast<::ssize_t>(len);  // frozen no-op
  const std::uint64_t n = ++ops_;
  const auto it = fds_.find(fd);
  if (it == fds_.end() || !it->second.writable) {
    errno = EBADF;
    return -1;
  }
  // Short-write modeling: accept at most max_write_bytes_ per call so
  // the caller's write loop issues several syscalls — each its own
  // event the cut enumeration can land on.
  std::size_t take = len;
  if (max_write_bytes_ != 0 && take > max_write_bytes_)
    take = max_write_bytes_;
  if (cut_.at_op != 0 && n == cut_.at_op) {
    // Torn write: only the first torn_bytes of this chunk reached the
    // file before the power died.
    take = cut_.torn_bytes < take ? cut_.torn_bytes : take;
    crashed_ = true;
  }
  Handle& h = it->second;
  std::vector<std::uint8_t>& f = files_[h.path];
  if (h.off + take > f.size()) f.resize(h.off + take);
  // take == 0 (a fully torn write) must skip memcpy: an empty vector's
  // data() may be null, and memcpy's pointer args are declared nonnull.
  if (take != 0) std::memcpy(f.data() + h.off, data, take);
  h.off += take;
  if (crashed_) throw CrashCut();
  return static_cast<::ssize_t>(take);
}

::ssize_t SimFs::read(int fd, void* buf, std::size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return 0;  // frozen: EOF
  const auto it = fds_.find(fd);
  if (it == fds_.end()) {
    errno = EBADF;
    return -1;
  }
  Handle& h = it->second;
  const auto fit = files_.find(h.path);
  if (fit == files_.end()) {
    errno = EIO;
    return -1;
  }
  const std::vector<std::uint8_t>& f = fit->second;
  if (h.off >= f.size()) return 0;
  const std::size_t take = len < f.size() - h.off ? len : f.size() - h.off;
  std::memcpy(buf, f.data() + h.off, take);
  h.off += take;
  return static_cast<::ssize_t>(take);
}

::off_t SimFs::file_size(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return 0;  // frozen: reads see EOF
  const auto it = fds_.find(fd);
  if (it == fds_.end()) {
    errno = EBADF;
    return -1;
  }
  const auto fit = files_.find(it->second.path);
  return fit == files_.end() ? 0 : static_cast<::off_t>(fit->second.size());
}

int SimFs::fsync(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return 0;
  if (fds_.count(fd) == 0) {
    errno = EBADF;
    return -1;
  }
  return 0;  // writes are modeled as instantly durable
}

int SimFs::close(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return 0;
  const auto it = fds_.find(fd);
  if (it == fds_.end()) {
    errno = EBADF;
    return -1;
  }
  fds_.erase(it);
  return 0;
}

int SimFs::rename(const char* from, const char* to) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return 0;
  const auto it = files_.find(from);
  if (it == files_.end()) {
    errno = ENOENT;
    return -1;
  }
  // Atomic replace, POSIX-style: the destination flips in one event.
  files_[to] = std::move(it->second);
  files_.erase(it);
  return 0;
}

int SimFs::unlink(const char* path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return 0;
  if (files_.erase(path) == 0) {
    errno = ENOENT;
    return -1;
  }
  return 0;
}

int SimFs::fsync_dir(const char* /*path*/) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_op()) return 0;
  return 0;
}

}  // namespace ovo::rt
