// Torn-write crash simulation: run the checkpoint writers against
// rt::SimFs, cut the run at EVERY syscall boundary (including mid-write
// with a torn prefix), and prove the PR-7 crash-safety invariant
// mechanically —
//
//   (1) after any simulated crash the checkpoint path holds exactly one
//       valid snapshot image: the old one or the new one, never a torn
//       hybrid (a `.tmp` may survive, but it is ignorable garbage);
//   (2) a run resumed from whatever snapshot survived is byte-identical
//       to the uninterrupted run.
//
// Cutting *before* operation k for every k also covers crash-after
// operation k-1, so the enumeration includes crash-after-rename (both
// sides of the commit point).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "parallel/exec_policy.hpp"
#include "rt/checkpoint.hpp"
#include "rt/file_ops.hpp"
#include "rt/sim_fs.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::core {
namespace {

// ---------------------------------------------------------------------------
// Container layer: save_checkpoint over an existing checkpoint.

TEST(CrashSim, CutAtEverySyscallLeavesOldOrNewNeverTorn) {
  const std::string path = "/ckpt/state.bin";
  const std::vector<std::uint8_t> old_payload(64, 0xAA);
  std::vector<std::uint8_t> new_payload(100);
  for (std::size_t i = 0; i < new_payload.size(); ++i)
    new_payload[i] = static_cast<std::uint8_t>(i * 7 + 1);

  // Probe A: the on-disk image of the old checkpoint.
  rt::SimFs fs_old;
  {
    rt::ScopedFileOps install(fs_old);
    rt::save_checkpoint(path, 1, old_payload);
  }
  const std::vector<std::uint8_t> old_image = fs_old.get(path);

  // Probe B: overwrite with the new checkpoint, small write quanta so
  // the cut sweep can land inside the payload, and count the syscalls.
  rt::SimFs fs_new;
  fs_new.put(path, old_image);
  fs_new.set_max_write_bytes(5);
  std::uint64_t n_ops = 0;
  {
    rt::ScopedFileOps install(fs_new);
    rt::save_checkpoint(path, 1, new_payload);
    n_ops = fs_new.ops_seen();
  }
  const std::vector<std::uint8_t> new_image = fs_new.get(path);
  ASSERT_GE(n_ops, 25u);  // open + ~25 short writes + fsync/close/rename

  for (std::uint64_t cut = 1; cut <= n_ops; ++cut) {
    for (const std::size_t torn : {std::size_t{0}, std::size_t{3}}) {
      rt::SimFs sim(rt::SimFs::CutPlan{cut, torn});
      sim.put(path, old_image);
      sim.set_max_write_bytes(5);
      {
        rt::ScopedFileOps install(sim);
        EXPECT_THROW(rt::save_checkpoint(path, 1, new_payload),
                     rt::SimFs::CrashCut)
            << "cut=" << cut;
      }
      // Invariant (1): the real path is exactly the old image or exactly
      // the new image — never torn, never missing.
      ASSERT_TRUE(sim.exists(path)) << "cut=" << cut;
      const std::vector<std::uint8_t> image = sim.get(path);
      EXPECT_TRUE(image == old_image || image == new_image)
          << "torn state at cut=" << cut << " torn=" << torn;
      // And it is loadable: the resumed process sees one valid frame.
      sim.thaw();
      rt::ScopedFileOps install(sim);
      const rt::CheckpointData d = rt::load_checkpoint(path, 1, 1);
      EXPECT_TRUE(d.payload == old_payload || d.payload == new_payload);
    }
  }
}

// ---------------------------------------------------------------------------
// Full pipeline: the FS* DP writing fence snapshots, cut anywhere, then
// resumed from the surviving snapshot.

void expect_results_equal(const FsStarResult& a, const FsStarResult& b) {
  EXPECT_EQ(a.completed_layers, b.completed_layers);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.certified_lower_bound, b.certified_lower_bound);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (const auto& [mask, ta] : a.tables) {
    const auto it = b.tables.find(mask);
    ASSERT_NE(it, b.tables.end()) << "mask " << mask;
    EXPECT_EQ(ta.vars, it->second.vars);
    EXPECT_EQ(ta.next_id, it->second.next_id);
    EXPECT_EQ(ta.cells, it->second.cells) << "mask " << mask;
  }
}

TEST(CrashSim, FsStarResumeAfterAnyCutIsByteIdentical) {
  constexpr int kN = 6;
  util::Xoshiro256 rng(29);
  const tt::TruthTable t = tt::random_function(kN, rng);
  const util::Mask all = util::full_mask(kN);
  const std::string path = "/ckpt/fs_star.bin";

  // The uninterrupted reference run (no checkpointing at all).
  OpCounter straight_ops;
  const FsStarResult straight =
      fs_star(initial_table(t), all, kN, DiagramKind::kBdd, &straight_ops,
              {}, nullptr, 0, nullptr);

  // Probe: same run writing a snapshot at every fence into the
  // simulator; counts the total syscall budget for the cut sweep.
  std::uint64_t n_ops = 0;
  {
    rt::SimFs sim;
    rt::ScopedFileOps install(sim);
    FsCheckpointOptions ckpt;
    ckpt.path = path;
    ckpt.every = 1;
    OpCounter ops;
    const FsStarResult probed =
        fs_star(initial_table(t), all, kN, DiagramKind::kBdd, &ops, {},
                nullptr, 0, &ckpt);
    expect_results_equal(probed, straight);
    n_ops = sim.ops_seen();
  }
  ASSERT_GE(n_ops, 10u);

  std::uint64_t resumed_runs = 0;
  for (std::uint64_t cut = 1; cut <= n_ops; ++cut) {
    rt::SimFs sim(rt::SimFs::CutPlan{cut, /*torn_bytes=*/3});
    rt::ScopedFileOps install(sim);
    FsCheckpointOptions ckpt;
    ckpt.path = path;
    ckpt.every = 1;
    OpCounter ops;
    bool crashed = false;
    try {
      fs_star(initial_table(t), all, kN, DiagramKind::kBdd, &ops, {},
              nullptr, 0, &ckpt);
    } catch (const rt::SimFs::CrashCut&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "cut=" << cut << " never fired";
    sim.thaw();
    if (!sim.exists(path)) continue;  // crashed before the first commit
    // Invariant (1): whatever survived decodes and validates cleanly.
    FsStarSnapshot snap = load_snapshot(path);
    // Invariant (2): resuming from it reproduces the straight run.
    FsCheckpointOptions resume;
    resume.path = path;
    resume.every = 1;
    resume.resume = &snap;
    OpCounter resumed_ops;
    const FsStarResult resumed =
        fs_star(initial_table(t), all, kN, DiagramKind::kBdd, &resumed_ops,
                {}, nullptr, 0, &resume);
    expect_results_equal(resumed, straight);
    ++resumed_runs;
  }
  // The sweep must actually have exercised resume (all but the first few
  // cuts leave a committed snapshot behind).
  EXPECT_GE(resumed_runs, n_ops / 2);
}

}  // namespace
}  // namespace ovo::core
