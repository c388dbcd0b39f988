// Crash-safety tests for the checkpoint/resume subsystem: the rt framing
// container (magic/version/length/CRC, atomic replacement), the FS*
// snapshot payload codec, a corrupted-snapshot torture corpus (every
// failure mode must surface as a typed CheckpointError — never UB, which
// the asan/tsan presets enforce), and the resume-determinism
// differential: a run interrupted at any layer fence and resumed must be
// bit-identical to the uninterrupted run — orders, sizes, tie-breaks,
// and every ledger — at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "parallel/exec_policy.hpp"
#include "reorder/minimize_auto.hpp"
#include "rt/budget.hpp"
#include "rt/checkpoint.hpp"
#include "rt/fault.hpp"
#include "rt/file_ops.hpp"
#include "rt/sim_fs.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::core {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// Hand-builds a container frame from explicit header fields, so the
/// lying-header fixtures state *which* field lies (version, length, CRC)
/// instead of poking raw byte offsets of a saved file.
std::vector<std::uint8_t> build_frame(
    std::uint32_t version, std::uint64_t length_field, std::uint32_t crc,
    const std::vector<std::uint8_t>& payload) {
  static constexpr char kMagic[8] = {'O', 'V', 'O', 'C', 'K', 'P', 'T',
                                     '\0'};
  rt::ByteWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(version);
  w.u64(length_field);
  w.u32(crc);
  w.bytes(payload.data(), payload.size());
  return w.take();
}

/// A frame whose header tells the truth about `payload`.
std::vector<std::uint8_t> build_valid_frame(
    std::uint32_t version, const std::vector<std::uint8_t>& payload) {
  return build_frame(version, payload.size(),
                     rt::crc32(payload.data(), payload.size()), payload);
}

/// CRC-32 straight from its definition — IEEE 802.3 polynomial,
/// reflected, one byte and then one bit at a time — sharing nothing with
/// rt::crc32's tables.
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// rt framing container

// Pins the polynomial: every other CRC check computes both sides with
// rt::crc32 itself.
TEST(RtCrc32, KnownAnswer) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(rt::crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(rt::crc32(kCheck, 0), 0u);
  EXPECT_EQ(rt::crc32(nullptr, 0), 0u);
}

// The sliced loop must agree with the definition at every length around
// its 8-byte step and every start alignment, and on a buffer large
// enough to run the main loop for millions of steps.
TEST(RtCrc32, MatchesBytewiseReference) {
  util::Xoshiro256 rng(41);
  std::vector<std::uint8_t> buf((std::size_t{3} << 20) + 13);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng() >> 56);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(rt::crc32(buf.data() + off, len),
                reference_crc32(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
  EXPECT_EQ(rt::crc32(buf.data(), buf.size()),
            reference_crc32(buf.data(), buf.size()));
  EXPECT_EQ(rt::crc32(buf.data() + 3, buf.size() - 3),
            reference_crc32(buf.data() + 3, buf.size() - 3));
}

// Folding the pieces' CRCs in order with crc32_combine gives crc32 of
// the whole buffer, however it is cut: random buffers and cut points,
// with empty pieces, odd lengths and pieces over 1 MiB all occurring.
TEST(RtCrc32, CombineFoldsAnyCutToTheWhole) {
  util::Xoshiro256 rng(43);
  std::vector<std::uint8_t> buf((std::size_t{5} << 20) + 7);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng() >> 56);
  int empty = 0, odd = 0, large = 0;
  for (int trial = 0; trial < 48; ++trial) {
    // Every fourth buffer is over 2 MiB, so some pieces exceed 1 MiB.
    const std::size_t len = trial % 4 == 0
                                ? buf.size() - rng.below(1 << 20)
                                : static_cast<std::size_t>(rng.below(4096));
    std::vector<std::size_t> cuts = {0, len};
    const std::uint64_t pieces = 1 + rng.below(6);
    for (std::uint64_t c = 1; c < pieces; ++c) {
      const std::size_t at = static_cast<std::size_t>(rng.below(len + 1));
      cuts.push_back(at);
      if (c == 2) cuts.push_back(at);  // an empty piece
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t folded = rt::crc32(nullptr, 0);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::size_t piece = cuts[i + 1] - cuts[i];
      empty += piece == 0;
      odd += piece % 2 == 1;
      large += piece > (std::size_t{1} << 20);
      folded = rt::crc32_combine(
          folded, rt::crc32(buf.data() + cuts[i], piece), piece);
    }
    EXPECT_EQ(folded, rt::crc32(buf.data(), len))
        << "trial " << trial << " length " << len;
  }
  EXPECT_GT(empty, 0);
  EXPECT_GT(odd, 0);
  EXPECT_GT(large, 0);
}

// Known answer: "123456789" split at every point folds back to the
// check value.
TEST(RtCrc32, CombineKnownAnswerAtEverySplit) {
  const char kCheck[] = "123456789";
  for (std::size_t cut = 0; cut <= 9; ++cut)
    EXPECT_EQ(rt::crc32_combine(rt::crc32(kCheck, cut),
                                rt::crc32(kCheck + cut, 9 - cut), 9 - cut),
              0xCBF43926u)
        << "cut " << cut;
}

TEST(RtByteWriter, BulkU32AppendMatchesPerValue) {
  const std::vector<std::uint32_t> values = {0u,          1u, 0x01020304u,
                                             0x80000000u, 0xFFFFFFFFu, 77u};
  rt::ByteWriter bulk;
  rt::ByteWriter single;
  // An odd starting offset: the bulk append needs no alignment.
  bulk.u8(9);
  single.u8(9);
  bulk.reserve(64);
  bulk.uint_array(values.data(), values.size());
  for (const std::uint32_t v : values) single.u32(v);
  EXPECT_EQ(bulk.data(), single.data());
  // Little-endian on the wire, whatever the host.
  const std::vector<std::uint8_t> want = {4, 3, 2, 1};
  EXPECT_TRUE(std::equal(want.begin(), want.end(), bulk.data().begin() + 9));
  bulk.uint_array(static_cast<const std::uint32_t*>(nullptr), 0);
  EXPECT_EQ(bulk.data().size(), 1 + 4 * values.size());
  // Narrow cells go out at their own width, little-endian too, and read
  // back through the reader's counterpart.
  const std::vector<std::uint16_t> narrow = {0x0102u, 0xFFFFu, 5u};
  bulk.uint_array(narrow.data(), narrow.size());
  const std::vector<std::uint8_t> want16 = {2, 1, 0xFF, 0xFF, 5, 0};
  EXPECT_TRUE(std::equal(want16.begin(), want16.end(),
                         bulk.data().begin() + 1 + 4 * values.size()));
  rt::ByteReader r(bulk.data().data() + 1 + 4 * values.size(), 6);
  std::vector<std::uint16_t> back(3);
  r.uint_array(back.data(), back.size());
  EXPECT_EQ(back, narrow);
  EXPECT_TRUE(r.done());
}

TEST(RtCheckpoint, FramingRoundTrip) {
  const std::string path = temp_path("frame.bin");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  rt::save_checkpoint(path, 3, payload);
  const rt::CheckpointData d = rt::load_checkpoint(path, 1, 5);
  EXPECT_EQ(d.version, 3u);
  EXPECT_EQ(d.payload, payload);
}

TEST(RtCheckpoint, EmptyPayloadRoundTrip) {
  const std::string path = temp_path("frame_empty.bin");
  rt::save_checkpoint(path, 1, {});
  const rt::CheckpointData d = rt::load_checkpoint(path, 1, 1);
  EXPECT_TRUE(d.payload.empty());
}

TEST(RtCheckpoint, MissingFileIsIoError) {
  try {
    rt::load_checkpoint(temp_path("does_not_exist.bin"), 1, 1);
    FAIL() << "expected CheckpointError";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kIo);
  }
}

TEST(RtCheckpoint, TruncationSweepIsAlwaysTyped) {
  const std::string path = temp_path("trunc.bin");
  const std::string cut = temp_path("trunc_cut.bin");
  std::vector<std::uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 7);
  rt::save_checkpoint(path, 1, payload);
  const std::vector<std::uint8_t> framed = rt::read_file(path);
  for (std::size_t len = 0; len < framed.size(); ++len) {
    write_raw(cut, {framed.begin(),
                    framed.begin() + static_cast<std::ptrdiff_t>(len)});
    try {
      rt::load_checkpoint(cut, 1, 1);
      FAIL() << "truncation to " << len << " bytes loaded successfully";
    } catch (const rt::CheckpointError& e) {
      // Short header -> kTruncated; short payload -> kBadLength.  Either
      // way the failure is typed, and never reaches the decoder.
      EXPECT_TRUE(e.kind() == rt::CheckpointErrorKind::kTruncated ||
                  e.kind() == rt::CheckpointErrorKind::kBadLength)
          << "len=" << len;
    }
  }
}

TEST(RtCheckpoint, BitFlipSweepIsAlwaysTyped) {
  const std::string path = temp_path("flip.bin");
  const std::string bad = temp_path("flip_bad.bin");
  std::vector<std::uint8_t> payload(48);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i + 1);
  rt::save_checkpoint(path, 1, payload);
  std::vector<std::uint8_t> framed = rt::read_file(path);
  for (std::size_t byte = 0; byte < framed.size(); ++byte) {
    std::vector<std::uint8_t> mutated = framed;
    mutated[byte] ^= 0x41;
    write_raw(bad, mutated);
    EXPECT_THROW(rt::load_checkpoint(bad, 1, 1), rt::CheckpointError)
        << "flip at byte " << byte;
  }
}

TEST(RtCheckpoint, VersionSkewIsTyped) {
  const std::string path = temp_path("skew.bin");
  // Honest frame, but its version sits outside the caller's [1, 8] window.
  write_raw(path, build_valid_frame(9, {5, 5, 5}));
  try {
    rt::load_checkpoint(path, 1, 8);
    FAIL() << "expected CheckpointError";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kVersionSkew);
  }
}

TEST(RtCheckpoint, LengthFieldLiesAreTyped) {
  const std::string bad = temp_path("len_bad.bin");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const std::uint32_t crc = rt::crc32(payload.data(), payload.size());
  // Zero-length field with payload bytes still present.
  write_raw(bad, build_frame(1, 0, crc, payload));
  try {
    rt::load_checkpoint(bad, 1, 1);
    FAIL() << "expected CheckpointError";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kBadLength);
  }
  // Oversized length field (declares ~1 EiB; must be rejected before any
  // allocation is attempted).
  write_raw(bad, build_frame(1, 0x0FFFFFFFFFFFFFFFull, crc, payload));
  try {
    rt::load_checkpoint(bad, 1, 1);
    FAIL() << "expected CheckpointError";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kBadLength);
  }
}

// ---------------------------------------------------------------------------
// FS* snapshot payload

/// Runs fs_star with a byte hook capturing every layer-fence snapshot
/// (cadence 1), returning the straight-through result and the payloads.
struct CapturedRun {
  FsStarResult result;
  OpCounter ops;
  std::vector<std::vector<std::uint8_t>> fences;
};

CapturedRun capture_run(const tt::TruthTable& t, par::PruneMode prune) {
  CapturedRun out;
  FsCheckpointOptions ckpt;
  ckpt.every = 1;
  ckpt.on_bytes = [&](const std::vector<std::uint8_t>& payload) {
    out.fences.push_back(payload);
  };
  par::ExecPolicy exec;
  exec.prune = prune;
  out.result =
      fs_star(initial_table(t), util::full_mask(t.num_vars()), t.num_vars(),
              DiagramKind::kBdd, &out.ops, exec, nullptr, 0, &ckpt);
  return out;
}

void expect_tables_equal(
    const std::unordered_map<util::Mask, NarrowTable>& a,
    const std::unordered_map<util::Mask, NarrowTable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [mask, ta] : a) {
    const auto it = b.find(mask);
    ASSERT_NE(it, b.end()) << "mask " << mask;
    EXPECT_EQ(ta.vars, it->second.vars);
    EXPECT_EQ(ta.next_id, it->second.next_id);
    EXPECT_EQ(ta.cells, it->second.cells) << "mask " << mask;
  }
}

void expect_prune_equal(const PruneStats& a, const PruneStats& b) {
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.states_generated, b.states_generated);
  EXPECT_EQ(a.states_pruned, b.states_pruned);
  EXPECT_EQ(a.states_dead, b.states_dead);
  EXPECT_EQ(a.states_surviving, b.states_surviving);
  EXPECT_EQ(a.dense_cells, b.dense_cells);
  EXPECT_EQ(a.sparse_cells, b.sparse_cells);
}

/// The pinned projection of a stats view's ledger: what a resumed run
/// must reproduce exactly (measured counters such as dedup probes cover
/// only the work after the resume).
template <typename Stats>
obs::Ledger pinned_ledger(const Stats& stats) {
  obs::Ledger l;
  stats.to_ledger(l);
  return l.pinned();
}

void expect_ops_equal(const OpCounter& a, const OpCounter& b) {
  EXPECT_EQ(pinned_ledger(a), pinned_ledger(b));
}

void expect_results_equal(const FsStarResult& a, const FsStarResult& b) {
  EXPECT_EQ(a.completed_layers, b.completed_layers);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.certified_lower_bound, b.certified_lower_bound);
  expect_prune_equal(a.prune, b.prune);
  expect_tables_equal(a.tables, b.tables);
}

bool strictly_ascending_masks(const std::vector<FsState>& states) {
  for (std::size_t i = 1; i < states.size(); ++i)
    if (states[i - 1].mask >= states[i].mask) return false;
  return true;
}

/// Encodes a decoded snapshot again, through the same view the engines
/// fill from live state (the snapshot's sorted records are the layout
/// FsStarResult keeps).
std::vector<std::uint8_t> reencode(const FsStarSnapshot& s) {
  FsSnapshotView v;
  v.fingerprint = &s.fingerprint;
  v.num_terminals = s.num_terminals;
  v.layer = s.layer;
  v.dense = &s.dense;
  v.tables = &s.tables;
  v.classes = &s.classes;
  v.states = &s.states;
  v.certified_lower_bound = s.certified_lower_bound;
  v.counters = &s.counters;
  v.seed_order = &s.seed_order;
  v.seed_counters = &s.seed_counters;
  return encode_snapshot(v);
}

TEST(FsSnapshot, EncodeIsDeterministicAndRoundTrips) {
  util::Xoshiro256 rng(11);
  const tt::TruthTable t = tt::random_function(6, rng);
  for (const par::PruneMode prune :
       {par::PruneMode::kOff, par::PruneMode::kBounds}) {
    const CapturedRun run = capture_run(t, prune);
    ASSERT_EQ(run.fences.size(), static_cast<std::size_t>(t.num_vars()) - 1)
        << "fences at layers 1..n-1 (layer n is extraction, not a fence)";
    for (const auto& payload : run.fences) {
      const FsStarSnapshot s =
          decode_snapshot(payload.data(), payload.size());
      EXPECT_EQ(s.fingerprint.n, 6u);
      EXPECT_EQ(s.dense.size(), s.tables.size());
      // Decoded state re-encodes to the identical bytes: the codec has no
      // iteration-order or uninitialized-padding leaks.
      EXPECT_EQ(reencode(s), payload);
    }
  }
}

// Measured counters never reach the bytes: a fence encoded with other
// dedup probe totals and resizes (what a differently sized dedup table
// would record) is the identical payload.
TEST(FsSnapshot, MeasuredCountersLeaveBytesUnchanged) {
  util::Xoshiro256 rng(15);
  const tt::TruthTable t = tt::adder_carry(6);
  reorder::AutoMinimizeOptions opt;
  opt.exec.prune = par::PruneMode::kBounds;
  std::vector<std::vector<std::uint8_t>> fences;
  opt.ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
    fences.push_back(p);
  };
  reorder::minimize_auto(t, rt::Budget(), opt);
  ASSERT_FALSE(fences.empty());
  for (const auto& payload : fences) {
    FsStarSnapshot s = decode_snapshot(payload.data(), payload.size());
    ASSERT_GT(s.counters.get(obs::Metric::kDsUniqueLookups), 0u);
    ASSERT_GT(s.seed_counters.get(obs::Metric::kOracleQueries), 0u);
    for (obs::Ledger* l : {&s.counters, &s.seed_counters}) {
      OpCounter noisy;
      noisy.dedup.probes = 1 + rng.below(1000);
      noisy.dedup.resizes = 1 + rng.below(10);
      noisy.to_ledger(*l);
    }
    EXPECT_EQ(reencode(s), payload);
  }
}

/// The bytes of one keyed counter section, written as given: no check
/// of names, order, values or count.
std::vector<std::uint8_t> counter_section(
    std::uint32_t count,
    const std::vector<std::pair<std::string, std::uint64_t>>& entries) {
  rt::ByteWriter w;
  w.u32(count);
  for (const auto& [name, bits] : entries) {
    w.str(name);
    w.u64(bits);
  }
  return w.take();
}

// Each way a keyed section can lie is a typed kMalformed, in either
// section: an unknown or measured name, a repeated or out-of-order name,
// a zero value, or more entries than the registry has.
TEST(FsSnapshot, KeyedSectionRejectsMalformedEntries) {
  util::Xoshiro256 rng(16);
  const tt::TruthTable t = tt::random_function(5, rng);
  const CapturedRun run = capture_run(t, par::PruneMode::kOff);
  ASSERT_FALSE(run.fences.empty());
  FsStarSnapshot s =
      decode_snapshot(run.fences.back().data(), run.fences.back().size());
  s.counters = obs::Ledger{};
  s.counters.set(obs::Metric::kFsCompactions, 5);
  s.counters.set(obs::Metric::kFsTableCells, 9);
  s.seed_counters = obs::Ledger{};
  s.seed_counters.set(obs::Metric::kOracleEvals, 3);
  s.seed_counters.set(obs::Metric::kOracleQueries, 4);
  const std::vector<std::uint8_t> payload = reencode(s);

  const std::vector<std::vector<std::uint8_t>> sections = {
      counter_section(2, {{"fs.compactions", 5}, {"fs.table_cells", 9}}),
      counter_section(2, {{"oracle.evals", 3}, {"oracle.queries", 4}})};
  const struct {
    const char* what;
    std::vector<std::uint8_t> bytes;
  } lies[] = {
      {"unknown name", counter_section(1, {{"fs.bogus", 5}})},
      {"measured name", counter_section(1, {{"ds.unique.probes", 5}})},
      {"repeated name",
       counter_section(2, {{"fs.compactions", 5}, {"fs.compactions", 9}})},
      {"out-of-order names",
       counter_section(2, {{"fs.table_cells", 9}, {"fs.compactions", 5}})},
      {"zero value", counter_section(1, {{"fs.compactions", 0}})},
      {"more entries than the registry",
       counter_section(static_cast<std::uint32_t>(obs::kMetricCount) + 1,
                       {})},
  };
  for (const std::vector<std::uint8_t>& section : sections) {
    const auto at = std::search(payload.begin(), payload.end(),
                                section.begin(), section.end());
    ASSERT_NE(at, payload.end());
    const auto splice = [&](const std::vector<std::uint8_t>& bytes) {
      std::vector<std::uint8_t> p(payload.begin(), at);
      p.insert(p.end(), bytes.begin(), bytes.end());
      p.insert(p.end(), at + static_cast<std::ptrdiff_t>(section.size()),
               payload.end());
      return p;
    };
    const std::vector<std::uint8_t> same = splice(section);
    EXPECT_NO_THROW(decode_snapshot(same.data(), same.size()));
    for (const auto& lie : lies) {
      const std::vector<std::uint8_t> bad = splice(lie.bytes);
      try {
        decode_snapshot(bad.data(), bad.size());
        ADD_FAILURE() << lie.what << " decoded";
      } catch (const rt::CheckpointError& e) {
        EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kMalformed)
            << lie.what << ": " << e.what();
      }
    }
  }
}

/// Payloads a run writes, by fence layer: cadence `every`, optionally
/// resumed from `resume`.
std::map<int, std::vector<std::uint8_t>> fence_payloads(
    const tt::TruthTable& t, par::PruneMode prune, int threads, int every,
    FsStarSnapshot* resume) {
  std::map<int, std::vector<std::uint8_t>> out;
  FsCheckpointOptions ckpt;
  ckpt.every = every;
  ckpt.resume = resume;
  ckpt.on_bytes = [&](const std::vector<std::uint8_t>& payload) {
    const int layer = decode_snapshot(payload.data(), payload.size()).layer;
    EXPECT_TRUE(out.emplace(layer, payload).second) << "layer " << layer;
  };
  par::ExecPolicy exec;
  exec.num_threads = threads;
  exec.prune = prune;
  OpCounter ops;
  fs_star(initial_table(t), util::full_mask(t.num_vars()), t.num_vars(),
          DiagramKind::kBdd, &ops, exec, nullptr, 0, &ckpt);
  return out;
}

// A fence's bytes are a function of the DP state at that fence alone:
// neither the cadence (fences that wrote nothing still contribute their
// states' records) nor a resume in between may change them.  This pins
// the encoder's record ordering and completeness: every state of every
// earlier layer, in ascending mask order.
TEST(FsSnapshot, BytesIndependentOfCadenceAndResume) {
  util::Xoshiro256 rng(14);
  for (const int n : {6, 8}) {
    const tt::TruthTable t = tt::random_function(n, rng);
    for (const par::PruneMode prune :
         {par::PruneMode::kOff, par::PruneMode::kBounds}) {
      const auto straight = fence_payloads(t, prune, 1, 1, nullptr);
      ASSERT_EQ(straight.size(), static_cast<std::size_t>(n - 1));
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " threads=" +
                     std::to_string(threads) +
                     (prune == par::PruneMode::kBounds ? " pruned" : ""));
        for (const int every : {2, 3}) {
          const auto sparse = fence_payloads(t, prune, threads, every, nullptr);
          EXPECT_EQ(sparse.size(), static_cast<std::size_t>((n - 1) / every));
          for (const auto& [layer, payload] : sparse) {
            EXPECT_EQ(layer % every, 0);
            EXPECT_EQ(payload, straight.at(layer))
                << "every=" << every << " layer=" << layer;
          }
        }
        for (const auto& [from, payload] : straight) {
          FsStarSnapshot snap =
              decode_snapshot(payload.data(), payload.size());
          const auto resumed = fence_payloads(t, prune, threads, 1, &snap);
          EXPECT_EQ(resumed.size(), static_cast<std::size_t>(n - 1 - from));
          for (const auto& [layer, bytes] : resumed) {
            EXPECT_GT(layer, from);
            EXPECT_EQ(bytes, straight.at(layer))
                << "resumed at " << from << ", layer " << layer;
          }
        }
      }
    }
  }
}

TEST(FsSnapshot, PayloadTortureNeverCrashes) {
  util::Xoshiro256 rng(12);
  const tt::TruthTable t = tt::random_function(5, rng);
  const CapturedRun run = capture_run(t, par::PruneMode::kBounds);
  ASSERT_FALSE(run.fences.empty());
  const std::vector<std::uint8_t>& payload = run.fences.back();
  // Truncation at every byte boundary must throw a typed error.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decode_snapshot(payload.data(), len), rt::CheckpointError)
        << "truncated to " << len;
  }
  // Single-byte corruption at every offset: the CRC layer normally
  // catches these, so the decoder sees them only when the container was
  // bypassed — it must still either reject with a typed error or produce
  // a (semantically validated) snapshot, and never touch memory out of
  // bounds.  The asan preset is the oracle for the latter.
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    std::vector<std::uint8_t> mutated = payload;
    mutated[byte] ^= 0xFF;
    try {
      const FsStarSnapshot s =
          decode_snapshot(mutated.data(), mutated.size());
      EXPECT_LE(s.dense.size(), std::size_t{1} << 5);
    } catch (const rt::CheckpointError&) {
      // Typed rejection is the expected outcome for most offsets.
    }
  }
}

TEST(FsSnapshot, WrongInstanceIsTyped) {
  util::Xoshiro256 rng(13);
  const tt::TruthTable t = tt::random_function(5, rng);
  const tt::TruthTable other = tt::random_function(5, rng);
  const CapturedRun run = capture_run(t, par::PruneMode::kOff);
  ASSERT_FALSE(run.fences.empty());
  FsStarSnapshot snap =
      decode_snapshot(run.fences.back().data(), run.fences.back().size());
  FsCheckpointOptions resume;
  resume.resume = &snap;
  const util::Mask all = util::full_mask(5);
  // Different function, same shape.
  try {
    fs_star(initial_table(other), all, 5, DiagramKind::kBdd, nullptr, {},
            nullptr, 0, &resume);
    FAIL() << "expected kWrongInstance";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kWrongInstance);
  }
  // Same function, different diagram kind.
  EXPECT_THROW(fs_star(initial_table(t), all, 5, DiagramKind::kZdd, nullptr,
                       {}, nullptr, 0, &resume),
               rt::CheckpointError);
  // Same function, different prune mode.
  par::ExecPolicy pruned;
  pruned.prune = par::PruneMode::kBounds;
  EXPECT_THROW(fs_star(initial_table(t), all, 5, DiagramKind::kBdd, nullptr,
                       pruned, nullptr, 0, &resume),
               rt::CheckpointError);
}

/// Requires the decoder to refuse `bytes` as a typed kMalformed, whose
/// message names `why` when one is given.
void expect_malformed_bytes(const std::vector<std::uint8_t>& bytes,
                            const char* what, const char* why = nullptr) {
  try {
    decode_snapshot(bytes.data(), bytes.size());
    ADD_FAILURE() << what << ": decoded";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kMalformed) << what;
    if (why != nullptr) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << what << ": " << e.what();
    }
  }
}

void expect_malformed(const FsStarSnapshot& s, const char* what,
                      const char* why = nullptr) {
  expect_malformed_bytes(reencode(s), what, why);
}

/// Adder carry(6)'s layer-1 dense fence: its three symmetric pairs
/// {x1,x2}, {x3,x4}, {x5,x6} leave the canonical states {x1}, {x3}, {x5}.
FsStarSnapshot adder6_layer1(std::vector<std::uint8_t>* payload = nullptr) {
  const CapturedRun run = capture_run(tt::adder_carry(6), par::PruneMode::kOff);
  EXPECT_EQ(run.fences.size(), 5u);
  if (payload != nullptr) *payload = run.fences[0];
  return decode_snapshot(run.fences[0].data(), run.fences[0].size());
}

// The orbit fields are validated like every other: on adder carry(6)'s
// layer-1 fence each lie is a typed kMalformed.  A snapshot whose
// classes decode but are not the base's is refused by the resumed run.
TEST(FsSnapshot, OrbitFieldsAreValidated) {
  const tt::TruthTable t = tt::adder_carry(6);
  const FsStarSnapshot layer1 = adder6_layer1();
  ASSERT_EQ(layer1.classes,
            (std::vector<util::Mask>{0b000011, 0b001100, 0b110000}));
  ASSERT_EQ(layer1.dense, (std::vector<util::Mask>{0b000001, 0b000100,
                                                   0b010000}));
  FsStarSnapshot s = layer1;
  s.classes.pop_back();
  expect_malformed(s, "classes short of the block");
  s = layer1;
  s.classes.push_back(0b100000);
  expect_malformed(s, "overlapping classes");
  s = layer1;
  s.dense[0] = 0b000010;  // {x2}: its class's second member
  expect_malformed(s, "non-canonical layer mask");
  s = layer1;
  s.dense.pop_back();
  s.tables.pop_back();
  expect_malformed(s, "dense layer short of its canonical states");

  // Valid classes that are not the base's: {x5} and {x6} apart.  The
  // pruned fence holds fewer states than the layer allows, so it decodes.
  const CapturedRun pruned = capture_run(t, par::PruneMode::kBounds);
  FsStarSnapshot split =
      decode_snapshot(pruned.fences[0].data(), pruned.fences[0].size());
  split.classes = {0b000011, 0b001100, 0b010000, 0b100000};
  const std::vector<std::uint8_t> bytes = reencode(split);
  FsStarSnapshot decoded = decode_snapshot(bytes.data(), bytes.size());
  FsCheckpointOptions resume;
  resume.resume = &decoded;
  par::ExecPolicy exec;
  exec.prune = par::PruneMode::kBounds;
  try {
    fs_star(initial_table(t), util::full_mask(6), 6, DiagramKind::kBdd,
            nullptr, exec, nullptr, 0, &resume);
    ADD_FAILURE() << "resumed against classes the base does not have";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kMalformed);
  }
}

// Each rule of the state section is its own typed kMalformed.  On adder
// carry(6)'s layer-1 fence the records are the empty set (no ties) and
// {x1}, {x3}, {x5}, each tied with its whole class.  The lies: masks not
// strictly ascending, a mask outside the block, a mask that is not
// canonical, ties that are not a union of classes, ties that miss their
// state, and an empty set with ties.
TEST(FsSnapshot, StateRecordsAreValidated) {
  std::vector<std::uint8_t> payload;
  const FsStarSnapshot layer1 = adder6_layer1(&payload);
  ASSERT_EQ(layer1.states,
            (std::vector<FsState>{{0, 0, layer1.states[0].mincost},
                                  {0b000001, 0b000011,
                                   layer1.states[1].mincost},
                                  {0b000100, 0b001100,
                                   layer1.states[2].mincost},
                                  {0b010000, 0b110000,
                                   layer1.states[3].mincost}}));
  EXPECT_EQ(reencode(layer1), payload);

  // The encoder asserts ascending masks, so that lie goes into the bytes:
  // the records end the payload, 24 bytes each, mask first.
  std::vector<std::uint8_t> bytes = payload;
  const std::size_t records = bytes.size() - 24 * layer1.states.size();
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(records + 24), 8,
              bytes.begin() + static_cast<std::ptrdiff_t>(records + 48));
  expect_malformed_bytes(bytes, "{x1} twice", "not strictly ascending");

  FsStarSnapshot s = layer1;
  s.states.back().mask |= util::Mask{1} << 6;
  expect_malformed(s, "a mask outside the block", "outside the block");
  s = layer1;
  s.states[1].mask = 0b000010;  // {x2}: its class's second member
  expect_malformed(s, "a non-canonical mask", "not canonical");
  s = layer1;
  s.states[1].ties = 0b000001;
  expect_malformed(s, "half a class tied", "not a union of symmetry classes");
  s = layer1;
  s.states[1].ties = 0b110000;
  expect_malformed(s, "ties without x1", "misses its state");
  s = layer1;
  s.states[0].ties = 0b000011;
  expect_malformed(s, "an empty set with ties", "empty set");
}

// A resumed pruned ladder may return its snapshot's seed order as the
// answer, so a seed order that is neither empty nor a permutation of the
// block is a typed kMalformed: a repeated variable, a missing one, or one
// too many.
TEST(FsSnapshot, SeedOrderMustPermuteTheBlock) {
  const tt::TruthTable t = tt::adder_carry(6);
  const CapturedRun pruned = capture_run(t, par::PruneMode::kBounds);
  ASSERT_FALSE(pruned.fences.empty());
  const FsStarSnapshot s =
      decode_snapshot(pruned.fences[0].data(), pruned.fences[0].size());
  const std::vector<std::vector<int>> lies = {
      {0, 0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5, 5}};
  for (const std::vector<int>& order : lies) {
    FsStarSnapshot bad = s;
    bad.seed_order = order;
    const std::vector<std::uint8_t> bytes = reencode(bad);
    try {
      decode_snapshot(bytes.data(), bytes.size());
      ADD_FAILURE() << "seed order of " << order.size() << " accepted";
    } catch (const rt::CheckpointError& e) {
      EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kMalformed);
    }
  }
  FsStarSnapshot none = s;
  none.seed_order.clear();
  const std::vector<std::uint8_t> bytes = reencode(none);
  EXPECT_TRUE(decode_snapshot(bytes.data(), bytes.size()).seed_order.empty());
}

// ---------------------------------------------------------------------------
// Resume determinism differential

// Interrupt at every layer fence, resume, and require the resumed run to
// reproduce the straight-through run exactly: tables, records (tie sets
// and mincosts), prune ledger, certified bound, and the merged OpCounter
// — at several thread counts.
TEST(FsResume, EveryFenceBitIdentical) {
  util::Xoshiro256 rng(21);
  for (const int n : {6, 8}) {
    const tt::TruthTable t = tt::random_function(n, rng);
    const util::Mask all = util::full_mask(n);
    for (const par::PruneMode prune :
         {par::PruneMode::kOff, par::PruneMode::kBounds}) {
      const CapturedRun straight = capture_run(t, prune);
      for (const auto& payload : straight.fences) {
        const FsStarSnapshot decoded =
            decode_snapshot(payload.data(), payload.size());
        for (const int threads : {1, 2, 4, 8}) {
          par::ExecPolicy exec;
          exec.num_threads = threads;
          exec.prune = prune;
          // A run consumes the snapshot it resumes: one copy per run.
          FsStarSnapshot snap = decoded;
          FsCheckpointOptions resume;
          resume.resume = &snap;
          OpCounter ops;
          const FsStarResult r =
              fs_star(initial_table(t), all, n, DiagramKind::kBdd, &ops,
                      exec, nullptr, 0, &resume);
          SCOPED_TRACE("n=" + std::to_string(n) + " layer=" +
                       std::to_string(snap.layer) + " threads=" +
                       std::to_string(threads) +
                       (prune == par::PruneMode::kBounds ? " pruned" : ""));
          expect_results_equal(r, straight.result);
          expect_ops_equal(ops, straight.ops);
        }
      }
    }
  }
}

// Resuming at the final fence (layer n-1) and at a mid fence must also
// reproduce the reconstructed order, not just the records.
TEST(FsResume, ReconstructedOrderMatches) {
  util::Xoshiro256 rng(22);
  const int n = 7;
  const tt::TruthTable t = tt::random_function(n, rng);
  const util::Mask all = util::full_mask(n);
  const CapturedRun straight = capture_run(t, par::PruneMode::kOff);
  const std::vector<int> want = reconstruct_block_order(straight.result, all);
  for (const auto& payload : straight.fences) {
    FsStarSnapshot snap =
        decode_snapshot(payload.data(), payload.size());
    FsCheckpointOptions resume;
    resume.resume = &snap;
    const FsStarResult r = fs_star(initial_table(t), all, n,
                                   DiagramKind::kBdd, nullptr, {}, nullptr,
                                   0, &resume);
    EXPECT_EQ(reconstruct_block_order(r, all), want);
  }
}

// Cadence: every=2 writes only even-layer fences (plus the completion
// semantics stay untouched).
TEST(FsResume, CadenceSkipsOddFences) {
  util::Xoshiro256 rng(23);
  const tt::TruthTable t = tt::random_function(6, rng);
  std::vector<int> layers;
  FsCheckpointOptions ckpt;
  ckpt.every = 2;
  ckpt.on_bytes = [&](const std::vector<std::uint8_t>& payload) {
    layers.push_back(decode_snapshot(payload.data(), payload.size()).layer);
  };
  fs_star(initial_table(t), util::full_mask(6), 6, DiagramKind::kBdd,
          nullptr, {}, nullptr, 0, &ckpt);
  EXPECT_EQ(layers, (std::vector<int>{2, 4}));
}

// A budget trip emits a final snapshot of the deepest completed layer;
// resuming it with the remaining budget replays the uninterrupted
// governed run exactly, including the work ledger.
TEST(FsResume, TripSnapshotResumesWithLedgerContinuity) {
  util::Xoshiro256 rng(24);
  const int n = 7;
  const tt::TruthTable t = tt::random_function(n, rng);
  const util::Mask all = util::full_mask(n);

  // Straight governed run (unlimited budget, so it completes).
  rt::Governor straight_gov((rt::Budget()));
  OpCounter straight_ops;
  const FsStarResult straight =
      fs_star(initial_table(t), all, n, DiagramKind::kBdd, &straight_ops, {},
              &straight_gov, 0, nullptr);
  ASSERT_EQ(straight.completed_layers, n);

  // Budgeted run that trips mid-DP and snapshots on the trip.
  std::vector<std::uint8_t> last;
  FsCheckpointOptions ckpt;
  ckpt.every = 1;
  ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) { last = p; };
  rt::Budget small;
  small.work_limit = straight_gov.stats().work_units / 3;
  rt::Governor tripped_gov(small);
  OpCounter tripped_ops;
  const FsStarResult tripped =
      fs_star(initial_table(t), all, n, DiagramKind::kBdd, &tripped_ops, {},
              &tripped_gov, 0, &ckpt);
  ASSERT_LT(tripped.completed_layers, n);
  ASSERT_FALSE(last.empty());

  // Resume under an unlimited budget: identical results, and the resumed
  // governor's total equals the straight run's (ledger continuity).
  FsStarSnapshot snap = decode_snapshot(last.data(), last.size());
  FsCheckpointOptions resume;
  resume.resume = &snap;
  rt::Governor resumed_gov((rt::Budget()));
  OpCounter resumed_ops;
  const FsStarResult resumed =
      fs_star(initial_table(t), all, n, DiagramKind::kBdd, &resumed_ops, {},
              &resumed_gov, 0, &resume);
  expect_results_equal(resumed, straight);
  expect_ops_equal(resumed_ops, straight_ops);
  EXPECT_EQ(resumed_gov.stats().work_units, straight_gov.stats().work_units);
}

// File-based round trip through the engine's framed write and
// load_snapshot, plus the dd-a-byte corruption the verify script
// exercises.
TEST(FsResume, FileRoundTripAndCorruption) {
  util::Xoshiro256 rng(25);
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng);
  const util::Mask all = util::full_mask(n);
  const std::string path = temp_path("fs_snapshot.bin");

  FsCheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every = 1;
  OpCounter straight_ops;
  const FsStarResult straight =
      fs_star(initial_table(t), all, n, DiagramKind::kBdd, &straight_ops, {},
              nullptr, 0, &ckpt);

  // The file holds the last fence (layer n-1); resuming completes the run.
  FsStarSnapshot snap = load_snapshot(path);
  EXPECT_EQ(snap.layer, n - 1);
  FsCheckpointOptions resume;
  resume.resume = &snap;
  OpCounter resumed_ops;
  const FsStarResult resumed =
      fs_star(initial_table(t), all, n, DiagramKind::kBdd, &resumed_ops, {},
              nullptr, 0, &resume);
  expect_results_equal(resumed, straight);
  expect_ops_equal(resumed_ops, straight_ops);

  // Corrupt one payload byte on disk: load must reject with CRC.
  std::vector<std::uint8_t> framed = rt::read_file(path);
  framed[framed.size() / 2] ^= 0x10;
  write_raw(path, framed);
  try {
    load_snapshot(path);
    FAIL() << "expected CheckpointError";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kCrcMismatch);
  }
}

// A snapshot written by an older encoder (container version below
// kFsSnapshotVersion) must be refused as version skew, not misparsed —
// each version's payload lays its counters out differently.
TEST(FsResume, OldSnapshotVersionIsTyped) {
  util::Xoshiro256 rng(26);
  const tt::TruthTable t = tt::random_function(5, rng);
  const CapturedRun run = capture_run(t, par::PruneMode::kOff);
  ASSERT_FALSE(run.fences.empty());

  const std::string path = temp_path("fs_snapshot_old.bin");
  // Honest frame (correct length and CRC) carrying a current payload, but
  // stamped with the previous container version.
  write_raw(path, build_valid_frame(kFsSnapshotVersion - 1, run.fences.back()));
  try {
    load_snapshot(path);
    FAIL() << "expected CheckpointError";
  } catch (const rt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kVersionSkew);
  }
}

// ---------------------------------------------------------------------------
// The engine's frame: one buffer per run, the CRC folded across the pool

/// One fence of a checkpointed run: the payload its byte hook received
/// and the file it committed.
struct Fence {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> file;
  std::uint64_t dispatch_events = 0;  ///< kTaskDispatch events at the hook
};

/// Runs the n-variable DP over `t` with a snapshot at every fence into
/// `path` on `sim`.  A fence's file is read at the next fence's hook
/// (the hook runs before the frame is written) and the last one after
/// the run.  With `plan`, each fence also records how many kTaskDispatch
/// events the plan had seen when its hook ran.
std::vector<Fence> capture_frames(const tt::TruthTable& t,
                                  par::PruneMode prune, int threads,
                                  rt::SimFs& sim, const std::string& path,
                                  const rt::ScopedFaultPlan* plan = nullptr) {
  std::vector<Fence> fences;
  FsCheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every = 1;
  ckpt.on_bytes = [&](const std::vector<std::uint8_t>& payload) {
    if (!fences.empty()) fences.back().file = sim.get(path);
    fences.push_back(Fence{payload, {}, 0});
    if (plan != nullptr)
      fences.back().dispatch_events =
          plan->events_seen(rt::FaultSite::kTaskDispatch);
  };
  par::ExecPolicy exec;
  exec.num_threads = threads;
  exec.prune = prune;
  rt::ScopedFileOps install(sim);
  OpCounter ops;
  const FsStarResult r =
      fs_star(initial_table(t), util::full_mask(t.num_vars()), t.num_vars(),
              DiagramKind::kBdd, &ops, exec, nullptr, 0, &ckpt);
  if (!fences.empty()) fences.back().file = sim.get(path);
  EXPECT_TRUE(strictly_ascending_masks(r.states));
  return fences;
}

/// Pieces the engine splits a payload's CRC into at `threads` threads:
/// at most one per thread, each about 1 MiB or more.
std::size_t crc_chunks(std::size_t payload_len, int threads) {
  return std::max<std::size_t>(
      1, std::min(static_cast<std::size_t>(threads),
                  payload_len / (std::size_t{1} << 20)));
}

// Every file the engine commits is the reference encoder's payload in
// the frame rt::save_checkpoint writes, dense and pruned, at 1 thread and
// at 4 (where the larger fences fold several CRC pieces: hwb(15)'s
// widest dense fences exceed 2 MiB at their cell widths).  Fences grow
// and then shrink, so the run-long frame buffer is reused at smaller
// sizes too; the DP's records are strictly ascending at every fence.
TEST(FsFrame, CommittedFilesAreTheReferenceFrames) {
  const tt::TruthTable t = tt::hidden_weighted_bit(15);
  for (const par::PruneMode prune :
       {par::PruneMode::kOff, par::PruneMode::kBounds}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(prune == par::PruneMode::kBounds ? "pruned"
                                                                : "dense") +
                   " threads=" + std::to_string(threads));
      rt::SimFs sim;
      const std::string path = "/ckpt/frame.bin";
      const std::vector<Fence> fences =
          capture_frames(t, prune, threads, sim, path);
      ASSERT_EQ(fences.size(), 14u);  // fences at layers 1..n-1
      std::size_t widest = 0;
      bool shrank = false, multi_chunk = false;
      for (const Fence& f : fences) {
        const FsStarSnapshot s =
            decode_snapshot(f.payload.data(), f.payload.size());
        EXPECT_TRUE(strictly_ascending_masks(s.states));
        EXPECT_EQ(reencode(s), f.payload) << "layer " << s.layer;
        rt::SimFs ref;
        {
          rt::ScopedFileOps install(ref);
          rt::save_checkpoint("/ref.bin", kFsSnapshotVersion, f.payload);
        }
        EXPECT_EQ(f.file, ref.get("/ref.bin")) << "layer " << s.layer;
        EXPECT_EQ(f.file, build_valid_frame(kFsSnapshotVersion, f.payload))
            << "layer " << s.layer;
        shrank = shrank || f.file.size() < widest;
        widest = std::max(widest, f.file.size());
        multi_chunk = multi_chunk || crc_chunks(f.payload.size(), 4) > 1;
      }
      EXPECT_TRUE(shrank);
      if (prune == par::PruneMode::kOff) {
        EXPECT_TRUE(multi_chunk);
      }
      EXPECT_FALSE(sim.exists(path + ".tmp"));
    }
  }
}

// The CRC's pool chunks are the only kTaskDispatch events a snapshot
// adds — none for a payload under 2 MiB — and a fault injected at any of
// them throws rt::FaultInjected before the temp file is opened: no
// `.tmp` is left, and the previous fence's snapshot stays whole.
TEST(FsFrame, CrcChunkFaultKeepsThePreviousSnapshot) {
  const tt::TruthTable t = tt::hidden_weighted_bit(15);
  const std::string path = "/ckpt/frame.bin";
  par::ExecPolicy exec;
  exec.num_threads = 4;

  // Probe: the dispatch events of the plain DP and of the checkpointed
  // one, and where each fence's hook falls among them.
  std::uint64_t plain_events = 0;
  {
    rt::ScopedFaultPlan probe{rt::FaultSchedule{}};
    fs_star(initial_table(t), util::full_mask(15), 15, DiagramKind::kBdd,
            nullptr, exec);
    plain_events = probe.events_seen(rt::FaultSite::kTaskDispatch);
  }
  rt::SimFs probe_fs;
  std::vector<Fence> fences;
  std::uint64_t ckpt_events = 0;
  {
    rt::ScopedFaultPlan probe{rt::FaultSchedule{}};
    fences = capture_frames(t, par::PruneMode::kOff, 4, probe_fs, path,
                            &probe);
    ckpt_events = probe.events_seen(rt::FaultSite::kTaskDispatch);
  }
  std::uint64_t crc_events = 0;
  std::size_t target = 0;  // first fence whose CRC splits, after fence 1
  for (std::size_t i = 0; i < fences.size(); ++i) {
    const std::size_t chunks = crc_chunks(fences[i].payload.size(), 4);
    if (chunks > 1) {
      crc_events += chunks;
      if (target == 0 && i > 0) target = i;
    }
  }
  ASSERT_GT(target, 0u);
  EXPECT_EQ(ckpt_events, plain_events + crc_events);

  const std::size_t chunks = crc_chunks(fences[target].payload.size(), 4);
  for (std::size_t c = 1; c <= chunks; ++c) {
    SCOPED_TRACE("chunk " + std::to_string(c) + " of " +
                 std::to_string(chunks));
    rt::SimFs sim;
    rt::FaultSchedule schedule;
    schedule.fail_nth(rt::FaultSite::kTaskDispatch,
                      fences[target].dispatch_events + c);
    {
      rt::ScopedFaultPlan plan(schedule);
      EXPECT_THROW(capture_frames(t, par::PruneMode::kOff, 4, sim, path),
                   rt::FaultInjected);
      EXPECT_EQ(plan.injected(rt::FaultSite::kTaskDispatch), 1u);
    }
    EXPECT_FALSE(sim.exists(path + ".tmp"));
    ASSERT_TRUE(sim.exists(path));
    EXPECT_EQ(sim.get(path), fences[target - 1].file);
    rt::ScopedFileOps install(sim);
    EXPECT_EQ(load_snapshot(path).layer, static_cast<int>(target));
  }
}

// A fence's commit runs on the engine's writer while the next layer
// computes, yet it fails as the serial write did.  A fault at fence 4's
// temp-file open, write, fsync or close, or at its rename, throws
// CheckpointError(kIo), leaves no `.tmp`, and leaves fence 3's frame on
// disk byte for byte.  The write comes before layer 5 in program order,
// so its error still surfaces when layer 5's first compaction fails too.
TEST(FsFrame, WriterFaultSurfacesAsTheSerialWriteDid) {
  util::Xoshiro256 rng(43);
  const tt::TruthTable t = tt::random_function(10, rng);
  const std::string path = "/ckpt/frame.bin";
  constexpr int kFence = 4;  // the fence whose commit fails

  for (const int threads : {1, 4}) {
    par::ExecPolicy exec;
    exec.num_threads = threads;
    // A dense run with a snapshot at every fence.  Fence 4's hook runs
    // after fence 3's commit and before its own: there it keeps the
    // committed file and the events `plan` has seen at every site.
    std::vector<std::uint8_t> committed;
    std::array<std::uint64_t, rt::kFaultSiteCount> seen{};
    const auto run = [&](rt::SimFs& sim, const rt::ScopedFaultPlan& plan) {
      FsCheckpointOptions ckpt;
      ckpt.path = path;
      ckpt.every = 1;
      int fence = 0;
      ckpt.on_bytes = [&](const std::vector<std::uint8_t>&) {
        if (++fence != kFence) return;
        committed = sim.get(path);
        for (std::size_t s = 0; s < rt::kFaultSiteCount; ++s)
          seen[s] = plan.events_seen(static_cast<rt::FaultSite>(s));
      };
      rt::ScopedFileOps install(sim);
      OpCounter ops;
      fs_star(initial_table(t), util::full_mask(10), 10, DiagramKind::kBdd,
              &ops, exec, nullptr, 0, &ckpt);
    };
    {
      rt::SimFs sim;
      rt::ScopedFaultPlan probe{rt::FaultSchedule{}};
      run(sim, probe);
    }
    const std::vector<std::uint8_t> fence3 = committed;
    const std::array<std::uint64_t, rt::kFaultSiteCount> before = seen;
    ASSERT_FALSE(fence3.empty());

    for (const rt::FaultSite site :
         {rt::FaultSite::kFileOpen, rt::FaultSite::kFileWrite,
          rt::FaultSite::kFileFsync, rt::FaultSite::kFileClose,
          rt::FaultSite::kFileRename}) {
      for (const bool layer5_fails : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " site " +
                     rt::fault_site_name(site) +
                     (layer5_fails ? " + layer 5 alloc" : ""));
        // The site's next event after fence 4's hook is fence 4's own
        // (for fsync, the temp file's; the directory's comes after the
        // rename); the next allocation event is layer 5's first
        // compaction.
        rt::FaultSchedule schedule;
        schedule.fail_nth(site, before[static_cast<std::size_t>(site)] + 1);
        if (layer5_fails)
          schedule.fail_nth(
              rt::FaultSite::kAlloc,
              before[static_cast<std::size_t>(rt::FaultSite::kAlloc)] + 1);
        rt::SimFs sim;
        {
          rt::ScopedFaultPlan plan(schedule);
          try {
            run(sim, plan);
            ADD_FAILURE() << "the run absorbed fence 4's write fault";
          } catch (const rt::CheckpointError& e) {
            EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kIo) << e.what();
          } catch (const std::bad_alloc&) {
            ADD_FAILURE() << "layer 5's error surfaced ahead of fence 4's";
          }
          EXPECT_EQ(plan.injected(site), 1u);
          EXPECT_EQ(plan.injected(rt::FaultSite::kAlloc),
                    layer5_fails ? 1u : 0u);
        }
        EXPECT_FALSE(sim.exists(path + ".tmp"));
        ASSERT_TRUE(sim.exists(path));
        EXPECT_EQ(sim.get(path), fence3);
        rt::ScopedFileOps install(sim);
        EXPECT_EQ(load_snapshot(path).layer, kFence - 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The governed ladder

/// A resumed ladder run must reproduce the straight one: order, size,
/// optimality, and every ledger (DP ops, the oracle counters restored
/// from the snapshot's seed-stage provenance, and governor work).
void expect_auto_equal(const rt::Result<reorder::AutoMinimizeResult>& resumed,
                       const rt::Result<reorder::AutoMinimizeResult>& straight) {
  EXPECT_EQ(resumed.outcome, rt::Outcome::kComplete);
  EXPECT_TRUE(resumed.value.optimal);
  EXPECT_EQ(resumed.value.order_root_first, straight.value.order_root_first);
  EXPECT_EQ(resumed.value.internal_nodes, straight.value.internal_nodes);
  EXPECT_EQ(resumed.value.lower_bound, straight.value.lower_bound);
  expect_ops_equal(resumed.value.ops, straight.value.ops);
  EXPECT_EQ(pinned_ledger(resumed.value.oracle),
            pinned_ledger(straight.value.oracle));
  EXPECT_EQ(resumed.stats.work_units, straight.stats.work_units);
}

// A pruned ladder run that stops on a proof (adder carry(6): its sift
// seed is certified at fence 5 of 6) writes fences 1..5 and no trip
// snapshot; resumed from each of them at the other thread count, it stops
// at the same fence with the straight run's order, size, ledgers and
// work.
TEST(MinimizeAutoResume, ProofStopResumesFromEveryFence) {
  const tt::TruthTable t = tt::adder_carry(6);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    reorder::AutoMinimizeOptions opt;
    opt.exec.prune = par::PruneMode::kBounds;
    opt.exec.num_threads = threads;
    std::vector<std::vector<std::uint8_t>> fences;
    reorder::AutoMinimizeOptions wopt = opt;
    wopt.ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
      fences.push_back(p);
    };
    const rt::Result<reorder::AutoMinimizeResult> straight =
        reorder::minimize_auto(t, rt::Budget(), wopt);
    ASSERT_TRUE(straight.value.optimal);
    ASSERT_EQ(straight.value.dp_layers_completed, 5);
    ASSERT_EQ(fences.size(), 5u);
    for (std::size_t k = 0; k < fences.size(); ++k) {
      SCOPED_TRACE(k + 1);
      FsStarSnapshot snap =
          decode_snapshot(fences[k].data(), fences[k].size());
      reorder::AutoMinimizeOptions ropt = opt;
      ropt.exec.num_threads = 5 - threads;
      ropt.ckpt.resume = &snap;
      const rt::Result<reorder::AutoMinimizeResult> resumed =
          reorder::minimize_auto(t, rt::Budget(), ropt);
      expect_auto_equal(resumed, straight);
      EXPECT_EQ(resumed.value.dp_layers_completed, 5);
    }
  }
}

// A minimize_auto run cancelled mid-DP (deterministically, via fault
// injection standing in for SIGINT) persists a trip snapshot; resuming
// skips the seed stage yet reproduces the uninterrupted run's order,
// size, optimality, and full ledger (oracle counters included, via the
// snapshot's seed-stage provenance).
TEST(MinimizeAutoResume, CancelledRunResumesBitIdentical) {
  util::Xoshiro256 rng(31);
  const tt::TruthTable t = tt::random_function(8, rng);

  reorder::AutoMinimizeOptions opt;
  opt.exec.prune = par::PruneMode::kBounds;
  const rt::Result<reorder::AutoMinimizeResult> straight =
      reorder::minimize_auto(t, rt::Budget(), opt);
  ASSERT_TRUE(straight.value.optimal);

  // Count the run's governor checkpoints with a plan that never fires, so
  // the injected cancellation can be aimed *inside the DP stage* — past
  // the seed heuristic (a trip there writes no snapshot, see
  // SeedStageTripWritesNoSnapshot) and before completion.
  std::uint64_t total_checkpoints = 0;
  {
    rt::FaultPlan probe;
    rt::ScopedFaultPlan scoped(probe);
    reorder::minimize_auto(t, rt::Budget(), opt);
    total_checkpoints = scoped.checkpoints_seen();
  }
  ASSERT_GT(total_checkpoints, 0u);

  std::vector<std::uint8_t> last;
  rt::Result<reorder::AutoMinimizeResult> tripped;
  bool found_trip = false;
  for (const int pct : {50, 62, 75, 87}) {
    last.clear();
    reorder::AutoMinimizeOptions copt = opt;
    copt.ckpt.every = 1;
    copt.ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
      last = p;
    };
    rt::CancelToken cancel;
    rt::FaultPlan plan;
    plan.cancel_at_checkpoint =
        std::max<std::uint64_t>(1, total_checkpoints * pct / 100);
    plan.cancel = &cancel;
    rt::Budget budget;
    budget.cancel = &cancel;
    rt::ScopedFaultPlan scoped(plan);
    tripped = reorder::minimize_auto(t, budget, copt);
    if (tripped.outcome == rt::Outcome::kCancelled &&
        tripped.value.dp_layers_completed >= 1 && !last.empty()) {
      found_trip = true;
      break;
    }
  }
  ASSERT_TRUE(found_trip) << "no injection point tripped mid-DP";
  ASSERT_FALSE(tripped.value.optimal);
  // Even the cancelled run returns a valid order and a certified bound.
  EXPECT_EQ(tripped.value.order_root_first.size(), 8u);
  EXPECT_GT(tripped.value.lower_bound, 0u);
  EXPECT_LE(tripped.value.lower_bound, straight.value.internal_nodes);

  const FsStarSnapshot decoded = decode_snapshot(last.data(), last.size());
  for (const int threads : {1, 2, 4, 8}) {
    // A run consumes the snapshot it resumes: one copy per run.
    FsStarSnapshot snap = decoded;
    reorder::AutoMinimizeOptions topt = opt;
    topt.ckpt.resume = &snap;
    topt.exec.num_threads = threads;
    const rt::Result<reorder::AutoMinimizeResult> resumed =
        reorder::minimize_auto(t, rt::Budget(), topt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_auto_equal(resumed, straight);
  }
}

// Every fence of a sift-seeded `--prune bounds` ladder resumes to the
// straight run at the other thread count, the seed section's counters
// included: they are what a sift that sizes each step from one prefix
// chain spent, and the resumed run reports them without re-running it.
TEST(MinimizeAutoResume, EveryFenceOfASiftSeededRunResumes) {
  const tt::TruthTable t = tt::adder_carry(10).permute_inputs(
      {3, 8, 1, 6, 9, 0, 4, 7, 2, 5});
  for (const int threads : {1, 4}) {
    reorder::AutoMinimizeOptions opt;
    opt.exec.prune = par::PruneMode::kBounds;
    opt.exec.num_threads = threads;
    std::vector<std::vector<std::uint8_t>> fences;
    reorder::AutoMinimizeOptions wopt = opt;
    wopt.ckpt.every = 1;
    wopt.ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
      fences.push_back(p);
    };
    const rt::Result<reorder::AutoMinimizeResult> straight =
        reorder::minimize_auto(t, rt::Budget(), wopt);
    ASSERT_TRUE(straight.value.optimal);
    ASSERT_GT(straight.value.oracle.evals, 0u);
    ASSERT_GE(fences.size(), 2u);
    for (const std::vector<std::uint8_t>& payload : fences) {
      FsStarSnapshot snap =
          decode_snapshot(payload.data(), payload.size());
      SCOPED_TRACE(::testing::Message() << "threads " << threads << " fence "
                                        << snap.layer);
      EXPECT_EQ(snap.seed_order.size(), 10u);
      EXPECT_GT(snap.seed_counters.get(obs::Metric::kOracleQueries), 0u);
      reorder::AutoMinimizeOptions ropt = opt;
      ropt.exec.num_threads = 5 - threads;
      ropt.ckpt.resume = &snap;
      expect_auto_equal(reorder::minimize_auto(t, rt::Budget(), ropt),
                        straight);
    }
  }
}

// A run whose seed stage is cut short — cancelled, or out of work —
// holds a partial incumbent the uninterrupted run never has, so a resume
// from its snapshot would replay a different ledger.  Such a run writes
// no snapshot at all, and still returns a valid order.
TEST(MinimizeAutoResume, SeedStageTripWritesNoSnapshot) {
  util::Xoshiro256 rng(31);
  const tt::TruthTable t = tt::random_function(8, rng);
  reorder::AutoMinimizeOptions opt;
  opt.exec.prune = par::PruneMode::kBounds;

  // The seed stage alone, as the ladder runs it first under a fresh
  // governor: its governor checkpoints and the work it charges.
  std::uint64_t seed_checkpoints = 0;
  std::uint64_t seed_work = 0;
  {
    rt::FaultPlan probe;
    rt::ScopedFaultPlan scoped(probe);
    rt::Governor gov{rt::Budget()};
    reorder::CostOracle oracle(t, opt.kind);
    reorder::EvalContext ctx;
    ctx.exec = opt.exec;
    ctx.gov = &gov;
    reorder::seed_prune_bound(oracle, opt.prune_seed, opt.sift_max_passes,
                              reorder::kLadderRestarts, reorder::kLadderSeed,
                              ctx);
    seed_checkpoints = scoped.checkpoints_seen();
    seed_work = gov.stats().work_units;
  }
  ASSERT_GT(seed_checkpoints, 1u);
  ASSERT_GT(seed_work, 1u);

  const auto expect_no_snapshot = [&](const rt::Budget& budget,
                                      rt::Outcome want) {
    reorder::AutoMinimizeOptions copt = opt;
    copt.ckpt.every = 1;
    int snapshots = 0;
    copt.ckpt.on_bytes = [&](const std::vector<std::uint8_t>&) {
      ++snapshots;
    };
    const rt::Result<reorder::AutoMinimizeResult> r =
        reorder::minimize_auto(t, budget, copt);
    EXPECT_EQ(r.outcome, want);
    EXPECT_EQ(snapshots, 0);
    EXPECT_FALSE(r.value.optimal);
    EXPECT_EQ(r.value.order_root_first.size(), 8u);
    EXPECT_TRUE(util::is_permutation(r.value.order_root_first));
  };
  {
    SCOPED_TRACE("cancelled inside the seed stage");
    rt::CancelToken cancel;
    rt::FaultPlan plan;
    plan.cancel_at_checkpoint = seed_checkpoints / 2;
    plan.cancel = &cancel;
    rt::ScopedFaultPlan scoped(plan);
    rt::Budget budget;
    budget.cancel = &cancel;
    expect_no_snapshot(budget, rt::Outcome::kCancelled);
  }
  {
    SCOPED_TRACE("work limit inside the seed stage");
    rt::Budget budget;
    budget.work_limit = seed_work / 2;
    expect_no_snapshot(budget, rt::Outcome::kDeadline);
  }
}

// Framed v9 snapshots checked in under the corpus: the format is pinned,
// not just self-consistent.  Each must load, re-encode to its exact
// payload, equal what a fresh run writes at that fence, and resume to
// the straight run.  Dense: hidden-weighted-bit(6) at fence 3 of a
// direct fs_star run, 42 records.  Pruned: adder carry(6) at fence 3 of
// a minimize_auto run with a sift seed, so the seed provenance fields
// (order and oracle counters) are covered too, 14 records.  Adder
// carry(6) has three symmetric pairs, so that fixture holds canonical
// states, their tie sets and its classes.
std::string corpus_snapshot(const char* name) {
  return std::string(OVO_CORPUS_DIR) + "/snapshot/" + name;
}

TEST(FsSnapshot, CheckedInV9FixturesStayCompatible) {
  static_assert(kFsSnapshotVersion == 9);
  {
    const std::string path =
        corpus_snapshot("valid_v9_dense_hwb6_layer3.bin");
    const std::vector<std::uint8_t> payload =
        rt::load_checkpoint(path, 9, 9).payload;
    EXPECT_EQ(rt::read_file(path).size(), 1936u);
    FsStarSnapshot snap = load_snapshot(path);
    ASSERT_EQ(snap.layer, 3);
    EXPECT_EQ(snap.states.size(), 42u) << "1 + 6 + 15 + 20 states";
    EXPECT_EQ(reencode(snap), payload);

    const tt::TruthTable t = tt::hidden_weighted_bit(6);
    const CapturedRun straight = capture_run(t, par::PruneMode::kOff);
    ASSERT_EQ(straight.fences.size(), 5u);
    EXPECT_EQ(straight.fences[2], payload);
    FsCheckpointOptions resume;
    resume.resume = &snap;
    OpCounter ops;
    const FsStarResult r =
        fs_star(initial_table(t), util::full_mask(6), 6, DiagramKind::kBdd,
                &ops, {}, nullptr, 0, &resume);
    expect_results_equal(r, straight.result);
    expect_ops_equal(ops, straight.ops);
  }
  {
    const std::string path =
        corpus_snapshot("valid_v9_pruned_adder6_layer3.bin");
    const std::vector<std::uint8_t> payload =
        rt::load_checkpoint(path, 9, 9).payload;
    EXPECT_EQ(rt::read_file(path).size(), 1213u);
    FsStarSnapshot snap = load_snapshot(path);
    ASSERT_EQ(snap.layer, 3);
    EXPECT_EQ(snap.states.size(), 14u);
    EXPECT_EQ(snap.seed_order.size(), 6u);
    EXPECT_GT(snap.seed_counters.get(obs::Metric::kOracleQueries), 0u);
    EXPECT_EQ(snap.classes.size(), 3u) << "three symmetric pairs";
    EXPECT_LT(snap.tables.size(), 7u)
        << "fence 3 should be pruned below its 7 canonical states";
    EXPECT_EQ(reencode(snap), payload);

    const tt::TruthTable t = tt::adder_carry(6);
    reorder::AutoMinimizeOptions opt;
    opt.exec.prune = par::PruneMode::kBounds;
    std::vector<std::vector<std::uint8_t>> fences;
    reorder::AutoMinimizeOptions wopt = opt;
    wopt.ckpt.every = 1;
    wopt.ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
      fences.push_back(p);
    };
    const rt::Result<reorder::AutoMinimizeResult> straight =
        reorder::minimize_auto(t, rt::Budget(), wopt);
    ASSERT_TRUE(straight.value.optimal);
    ASSERT_EQ(fences.size(), 5u);
    EXPECT_EQ(fences[2], payload);
    reorder::AutoMinimizeOptions ropt = opt;
    ropt.ckpt.resume = &snap;
    expect_auto_equal(reorder::minimize_auto(t, rt::Budget(), ropt),
                      straight);
  }
}

// The v2 to v8 fixtures earlier encoders wrote stay in the corpus: they
// load as a typed version skew, never as a misparsed v9 payload.
TEST(FsSnapshot, OlderCheckedInFixturesAreVersionSkew) {
  const struct {
    const char* name;
    std::uint32_t version;
  } fixtures[] = {{"valid_dense_hwb6_layer3.bin", 2},
                  {"valid_pruned_adder6_layer3.bin", 2},
                  {"valid_v3_dense_hwb6_layer3.bin", 3},
                  {"valid_v3_pruned_adder6_layer3.bin", 3},
                  {"valid_v4_dense_hwb6_layer3.bin", 4},
                  {"valid_v4_pruned_adder6_layer3.bin", 4},
                  {"valid_v5_dense_hwb6_layer3.bin", 5},
                  {"valid_v5_pruned_adder6_layer3.bin", 5},
                  {"valid_v6_dense_hwb6_layer3.bin", 6},
                  {"valid_v6_pruned_adder6_layer3.bin", 6},
                  {"valid_v7_dense_hwb6_layer3.bin", 7},
                  {"valid_v7_pruned_adder6_layer3.bin", 7},
                  {"valid_v8_dense_hwb6_layer3.bin", 8},
                  {"valid_v8_pruned_adder6_layer3.bin", 8}};
  for (const auto& [name, version] : fixtures) {
    const std::string path = corpus_snapshot(name);
    EXPECT_EQ(rt::load_checkpoint(path, version, version).version, version)
        << name;
    try {
      load_snapshot(path);
      ADD_FAILURE() << name << " loaded";
    } catch (const rt::CheckpointError& e) {
      EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kVersionSkew) << name;
    }
  }
}

// fs_minimize plumbs checkpoints end to end (the non-ladder entry).
TEST(MinimizeResume, FsMinimizeRoundTrip) {
  util::Xoshiro256 rng(32);
  const tt::TruthTable t = tt::random_function(7, rng);
  const std::string path = temp_path("fs_min.bin");
  FsCheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every = 1;
  const MinimizeResult straight =
      fs_minimize(t, DiagramKind::kBdd, {}, 0, &ckpt);
  FsStarSnapshot snap = load_snapshot(path);
  FsCheckpointOptions resume;
  resume.resume = &snap;
  const MinimizeResult resumed =
      fs_minimize(t, DiagramKind::kBdd, {}, 0, &resume);
  EXPECT_EQ(resumed.min_internal_nodes, straight.min_internal_nodes);
  EXPECT_EQ(resumed.order_root_first, straight.order_root_first);
}

}  // namespace
}  // namespace ovo::core
