#pragma once
// In-memory crash-simulating filesystem (ovo::rt) — the FileOps backend
// that proves the checkpoint layer's crash-safety invariant mechanically.
//
// The model: every operation the checkpoint layer performs is one
// numbered event.  A CutPlan names one event as the crash point.  Events
// before the cut apply normally; the cut event itself either applies a
// *torn prefix* (a write that only got `torn_bytes` onto the platter
// before power loss) or applies nothing at all, and then throws
// SimFs::CrashCut to abort the run the way a real crash aborts a process
// — no unwind-side cleanup gets to repair anything, because after the
// cut the image is FROZEN: every further operation is a successful no-op.
// That freeze is load-bearing twice over — nothing that runs during
// unwind can mutate the crash image, and it cannot throw either.
//
// A test then thaw()s the instance and re-runs the scenario with
// --resume semantics against the crashed image.  Enumerating the cut
// over every event index — and torn writes over several prefix lengths —
// covers crash-before, crash-during (short write), and crash-after
// (including crash-after-rename) for every syscall the writer performs.
//
// rename() is atomic in this model, exactly like POSIX rename on a
// journaling filesystem: the destination flips from old content to new
// in one event.  fsync is a no-op (writes are modeled as instantly
// durable; the *failure* of an fsync is the fault framework's job, and
// the crash-at-fsync case is covered by cutting at its event index).

#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "rt/file_ops.hpp"

namespace ovo::rt {

class SimFs final : public FileOps {
 public:
  /// Crash plan: cut at the `at_op`-th operation (1-based; 0 = never).
  /// When the cut lands on a write, `torn_bytes` of the attempted chunk
  /// reach the file first; for any other operation nothing applies.
  struct CutPlan {
    std::uint64_t at_op = 0;
    std::size_t torn_bytes = 0;
  };

  /// Thrown at the cut point.  Not a std::runtime_error on purpose:
  /// generic `catch (const std::exception&)` recovery paths in scenario
  /// code should not mistake a simulated power loss for a handleable
  /// error (tests catch it by exact type).
  class CrashCut : public std::exception {
   public:
    const char* what() const noexcept override {
      return "SimFs: simulated crash cut";
    }
  };

  SimFs();
  explicit SimFs(CutPlan cut);

  // -- test-side inspection / seeding (never counted as operations) ----
  void put(const std::string& path, std::vector<std::uint8_t> bytes);
  bool exists(const std::string& path) const;
  std::vector<std::uint8_t> get(const std::string& path) const;
  std::vector<std::string> list() const;
  std::uint64_t ops_seen() const;
  bool crashed() const;

  /// Clears the frozen state (and disarms the cut) so a resume run can
  /// execute against the crashed image.
  void thaw();

  /// Caps the bytes a single write() accepts, returning a short count —
  /// forcing the caller's write loop to issue multiple syscalls so the
  /// cut enumeration can land between them.  0 means unlimited.
  void set_max_write_bytes(std::size_t n) { max_write_bytes_ = n; }

  // -- FileOps ---------------------------------------------------------
  int open_write(const char* path) override;
  int open_read(const char* path) override;
  ::ssize_t write(int fd, const void* data, std::size_t len) override;
  ::ssize_t read(int fd, void* buf, std::size_t len) override;
  /// A query, not an operation: never counted, never a cut point.
  ::off_t file_size(int fd) override;
  int fsync(int fd) override;
  int close(int fd) override;
  int rename(const char* from, const char* to) override;
  int unlink(const char* path) override;
  int fsync_dir(const char* path) override;

 private:
  struct Handle {
    std::string path;
    std::size_t off = 0;
    bool writable = false;
  };

  /// Counts the operation and throws CrashCut when it is the cut point
  /// (the caller applies any torn prefix *before* calling this for
  /// writes).  Returns false when the image is frozen — the caller must
  /// then succeed as a no-op.
  bool alive_op();

  CutPlan cut_;
  bool crashed_ = false;
  std::uint64_t ops_ = 0;
  std::size_t max_write_bytes_ = 0;
  int next_fd_ = 1000;
  std::map<std::string, std::vector<std::uint8_t>> files_;
  std::map<int, Handle> fds_;
  mutable std::mutex mu_;
};

}  // namespace ovo::rt
