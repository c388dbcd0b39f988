// Tests for the rt::FileOps seam and the hardened atomic writer: every
// filesystem operation the checkpoint layer performs goes through one
// injectable backend, every primary-path operation is a fault site, and
// — the temp-file-leak regression — every failure path of
// write_file_atomic unlinks its `.tmp`, so a failed or interrupted write
// leaves the real path's old content and nothing else.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "rt/checkpoint.hpp"
#include "rt/fault.hpp"
#include "rt/file_ops.hpp"
#include "rt/sim_fs.hpp"
#include "util/check.hpp"

namespace ovo::rt {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

bool on_disk(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<std::uint8_t> bytes(const char* s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  return std::vector<std::uint8_t>(p, p + std::char_traits<char>::length(s));
}

TEST(FileOps, RealBackendRoundTrips) {
  const std::string path = temp_path("fileops_roundtrip.bin");
  const std::vector<std::uint8_t> data = bytes("hello, durable world");
  write_file_atomic(path, data.data(), data.size());
  EXPECT_EQ(read_file(path), data);
  EXPECT_FALSE(on_disk(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileOps, ScopedInstallRedirectsEverySyscall) {
  SimFs sim;
  const std::vector<std::uint8_t> data = bytes("simulated");
  const std::string path = temp_path("fileops_should_not_exist.bin");
  {
    ScopedFileOps install(sim);
    write_file_atomic(path, data.data(), data.size());
  }
  // The bytes landed in the simulator, not on the real filesystem.
  EXPECT_EQ(sim.get(path), data);
  EXPECT_FALSE(on_disk(path));
  EXPECT_GE(sim.ops_seen(), 5u);  // open, write, fsync, close, rename, ...
}

TEST(FileOps, ScopedInstallDoesNotNest) {
  SimFs a, b;
  ScopedFileOps outer(a);
  EXPECT_THROW(ScopedFileOps inner(b), util::CheckError);
}

// --- the temp-file-leak satellite -----------------------------------------

/// Every failing primary-path file operation must leave (a) the old
/// contents of the destination untouched and (b) no `.tmp` behind.
TEST(FileOps, EveryFailurePathUnlinksTheTempFile) {
  const FaultSite sites[] = {FaultSite::kFileOpen, FaultSite::kFileWrite,
                             FaultSite::kFileFsync, FaultSite::kFileRename,
                             FaultSite::kFileClose};
  const std::vector<std::uint8_t> old_data = bytes("old snapshot");
  const std::vector<std::uint8_t> new_data = bytes("new snapshot, longer");
  for (const FaultSite site : sites) {
    for (std::uint64_t nth = 1; nth <= 2; ++nth) {
      SimFs sim;
      const std::string path = "/ckpt/state.bin";
      sim.put(path, old_data);
      ScopedFileOps install(sim);
      FaultSchedule schedule;
      schedule.fail_nth(site, nth);
      ScopedFaultPlan plan(schedule);
      bool failed = false;
      try {
        write_file_atomic(path, new_data.data(), new_data.size());
      } catch (const CheckpointError& e) {
        EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
        failed = true;
      }
      if (plan.injected(site) == 0) {
        // The site saw fewer than `nth` events (e.g. only one fsync in
        // this path): the write must simply have succeeded.
        EXPECT_FALSE(failed) << fault_site_name(site) << " nth=" << nth;
        continue;
      }
      // The final fsync (directory durability) is deliberately
      // non-fatal; every other injection must surface as kIo.
      if (failed) {
        EXPECT_EQ(sim.get(path), old_data)
            << fault_site_name(site) << " nth=" << nth;
      } else {
        EXPECT_EQ(sim.get(path), new_data)
            << fault_site_name(site) << " nth=" << nth;
      }
      EXPECT_FALSE(sim.exists(path + ".tmp"))
          << "temp file leaked: " << fault_site_name(site) << " nth=" << nth;
    }
  }
}

}  // namespace
}  // namespace ovo::rt
