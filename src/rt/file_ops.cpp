#include "rt/file_ops.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "util/check.hpp"

namespace ovo::rt {

namespace {

class RealFileOps final : public FileOps {
 public:
  int open_write(const char* path) override {
    return ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  int open_read(const char* path) override {
    return ::open(path, O_RDONLY);
  }
  ::ssize_t write(int fd, const void* data, std::size_t len) override {
    return ::write(fd, data, len);
  }
  ::ssize_t read(int fd, void* buf, std::size_t len) override {
    return ::read(fd, buf, len);
  }
  ::off_t file_size(int fd) override {
    struct stat st;
    return ::fstat(fd, &st) == 0 ? st.st_size : -1;
  }
  int fsync(int fd) override { return ::fsync(fd); }
  int close(int fd) override { return ::close(fd); }
  int rename(const char* from, const char* to) override {
    return ::rename(from, to);
  }
  int unlink(const char* path) override { return ::unlink(path); }
  int fsync_dir(const char* path) override {
    const int dfd = ::open(path, O_RDONLY);
    if (dfd < 0) return -1;
    const int rc = ::fsync(dfd);
    ::close(dfd);
    return rc;
  }
};

std::atomic<FileOps*> g_ops{nullptr};

}  // namespace

FileOps& real_file_ops() {
  static RealFileOps real;
  return real;
}

FileOps& file_ops() {
  FileOps* ops = g_ops.load(std::memory_order_acquire);
  return ops != nullptr ? *ops : real_file_ops();
}

ScopedFileOps::ScopedFileOps(FileOps& ops) : prev_(nullptr) {
  FileOps* expected = nullptr;
  OVO_CHECK_MSG(g_ops.compare_exchange_strong(expected, &ops,
                                              std::memory_order_acq_rel),
                "ScopedFileOps: a FileOps backend is already installed");
}

ScopedFileOps::~ScopedFileOps() {
  g_ops.store(prev_, std::memory_order_release);
}

}  // namespace ovo::rt
