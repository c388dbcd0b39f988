#pragma once
// Injectable filesystem seam (ovo::rt) — every syscall the checkpoint
// layer performs goes through one FileOps instance, so tests can swap in
// a simulator that fails any single operation (fault_fileop_hook) or
// cuts the run at any syscall boundary (rt::SimFs crash simulation:
// short write, failed fsync, crash-after-rename) and then prove the
// crash-safety invariant mechanically: after any cut, the target path
// holds exactly one valid snapshot — old or new, never a torn one.
//
// The interface mirrors POSIX deliberately: negative return values (or
// nonzero for the int-returning calls) mean failure with errno set, so
// the call sites in checkpoint.cpp keep their original error handling
// whether the backend is the real kernel or a simulator.

#include <cstddef>
#include <sys/types.h>

namespace ovo::rt {

/// Abstract filesystem operations.  The default backend
/// (real_file_ops()) forwards to the kernel; rt::SimFs is the in-memory
/// crash simulator.
class FileOps {
 public:
  virtual ~FileOps() = default;

  /// O_WRONLY | O_CREAT | O_TRUNC, mode 0644.  Returns fd or -1.
  virtual int open_write(const char* path) = 0;
  /// O_RDONLY.  Returns fd or -1.
  virtual int open_read(const char* path) = 0;
  virtual ::ssize_t write(int fd, const void* data, std::size_t len) = 0;
  virtual ::ssize_t read(int fd, void* buf, std::size_t len) = 0;
  /// Size in bytes of the open file `fd` (fstat's st_size), or -1.
  /// Readers size their buffer from it once; it moves no data, so it is
  /// no fault site.
  virtual ::off_t file_size(int fd) = 0;
  virtual int fsync(int fd) = 0;
  virtual int close(int fd) = 0;
  virtual int rename(const char* from, const char* to) = 0;
  virtual int unlink(const char* path) = 0;
  /// fsync of the directory containing `path` (durability of a rename).
  virtual int fsync_dir(const char* path) = 0;
};

/// The kernel-backed implementation.
FileOps& real_file_ops();

/// The currently installed backend (real_file_ops() unless a
/// ScopedFileOps is active).
FileOps& file_ops();

/// Installs `ops` process-wide for its scope.  Not reentrant for
/// simplicity (one simulator at a time); nesting throws
/// util::CheckError via the installer.
class ScopedFileOps {
 public:
  explicit ScopedFileOps(FileOps& ops);
  ~ScopedFileOps();
  ScopedFileOps(const ScopedFileOps&) = delete;
  ScopedFileOps& operator=(const ScopedFileOps&) = delete;

 private:
  FileOps* prev_;
};

}  // namespace ovo::rt
