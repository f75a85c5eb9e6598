// Fleet checkpoint container + System save/restore (`fleet` label):
//
//  * corruption battery mirroring trace_codec's: every structural
//    violation of the container format must throw CheckpointFormatError
//    with the right path and byte offset — bad magic, version skew,
//    truncations at each structure, flipped CRCs and payload bytes,
//    oversized/reordered blocks, footer damage, trailing bytes, and a
//    config-hash mismatch;
//  * round-trip property: run a System partway, checkpoint, restore into
//    a FRESH System (freshly positioned traces), run both to completion
//    — the RunResults must be byte-identical to each other and to an
//    uninterrupted run, across channels x both loop modes.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fleet/checkpoint.h"
#include "fleet/node.h"
#include "secmem/params.h"
#include "sim/trace_codec.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

namespace secddr::fleet {
namespace {

namespace ck = checkpoint;

std::vector<std::uint8_t> sample_payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return p;
}

/// Asserts decode throws with the expected offset and message fragment.
void expect_error(const std::vector<std::uint8_t>& bytes,
                  std::uint64_t offset, const std::string& fragment) {
  try {
    ck::decode(bytes.data(), bytes.size(), "test.ckpt", nullptr);
    FAIL() << "expected CheckpointFormatError(" << fragment << ")";
  } catch (const CheckpointFormatError& e) {
    EXPECT_EQ(e.path(), "test.ckpt") << e.what();
    EXPECT_EQ(e.offset(), offset) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

/// Recomputes the header CRC after a deliberate header patch, so the
/// patched field (not the checksum) is what decode trips on.
void refresh_header_crc(std::vector<std::uint8_t>& bytes) {
  sim::trace_codec::put_u32(
      bytes.data() + 28, sim::trace_codec::crc32(bytes.data(), 28));
}

TEST(FleetCheckpointFormat, RoundTripsPayloadAndConfigHash) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{4097},
        ck::kBlockBytes + 177}) {
    SCOPED_TRACE(n);
    const std::vector<std::uint8_t> payload = sample_payload(n);
    const std::vector<std::uint8_t> bytes = ck::encode(0xfeedbeefcafe, payload);
    std::uint64_t hash = 0;
    EXPECT_EQ(ck::decode(bytes.data(), bytes.size(), "test.ckpt", &hash),
              payload);
    EXPECT_EQ(hash, 0xfeedbeefcafeull);
  }
}

TEST(FleetCheckpointFormat, CorruptionBattery) {
  const std::vector<std::uint8_t> payload = sample_payload(100);
  const std::vector<std::uint8_t> good = ck::encode(42, payload);
  const std::size_t foot = ck::kHeaderBytes + ck::kBlockHeaderBytes + 100;

  {  // control: the unmodified container decodes
    std::uint64_t hash = 0;
    EXPECT_EQ(ck::decode(good.data(), good.size(), "test.ckpt", &hash),
              payload);
    EXPECT_EQ(hash, 42u);
  }
  {  // truncated header
    std::vector<std::uint8_t> b(good.begin(), good.begin() + 16);
    expect_error(b, 0, "truncated header");
  }
  {  // bad magic
    std::vector<std::uint8_t> b = good;
    b[0] ^= 0xff;
    expect_error(b, 0, "bad magic");
  }
  {  // damaged header field -> checksum mismatch
    std::vector<std::uint8_t> b = good;
    b[20] ^= 0x01;  // inside config_hash
    expect_error(b, 28, "header checksum mismatch");
  }
  // Version skew (header CRC re-fixed, so the version check fires): a
  // newer format, and version 1, whose backend payload is laid out
  // differently.
  for (const std::uint32_t version : {ck::kVersion + 7, 1u}) {
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + 8, version);
    refresh_header_crc(b);
    expect_error(b, 8, "unsupported version " + std::to_string(version));
  }
  {  // truncated block header
    std::vector<std::uint8_t> b(good.begin(),
                                good.begin() + ck::kHeaderBytes + 4);
    expect_error(b, ck::kHeaderBytes, "truncated block header");
  }
  {  // oversized payload_bytes (allocation guard)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + ck::kHeaderBytes,
                              ck::kMaxPayloadBytes + 1);
    expect_error(b, ck::kHeaderBytes, "oversized block");
  }
  {  // block index mismatch (reordered / replayed block)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + ck::kHeaderBytes + 4, 1);
    expect_error(b, ck::kHeaderBytes + 4, "block index mismatch");
  }
  {  // payload_bytes larger than what is actually present
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + ck::kHeaderBytes, 100000);
    expect_error(b, ck::kHeaderBytes, "truncated block payload");
  }
  {  // flipped CRC byte
    std::vector<std::uint8_t> b = good;
    b[ck::kHeaderBytes + 8] ^= 0x10;
    expect_error(b, ck::kHeaderBytes + 8, "block checksum mismatch");
  }
  {  // flipped payload byte
    std::vector<std::uint8_t> b = good;
    b[ck::kHeaderBytes + ck::kBlockHeaderBytes + 33] ^= 0x40;
    expect_error(b, ck::kHeaderBytes + 8, "block checksum mismatch");
  }
  {  // malformed footer (second word nonzero)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u32(b.data() + foot + 4, 9);
    expect_error(b, foot + 4, "malformed footer");
  }
  {  // truncated footer (total field missing)
    std::vector<std::uint8_t> b(good.begin(),
                                good.begin() + static_cast<std::ptrdiff_t>(
                                                   foot + ck::kBlockHeaderBytes));
    expect_error(b, foot, "truncated footer");
  }
  {  // footer checksum mismatch
    std::vector<std::uint8_t> b = good;
    b[foot + ck::kBlockHeaderBytes] ^= 0x02;  // inside the total field
    expect_error(b, foot + 8, "footer checksum mismatch");
  }
  {  // footer total disagrees with the blocks (its own CRC re-fixed)
    std::vector<std::uint8_t> b = good;
    sim::trace_codec::put_u64(b.data() + foot + ck::kBlockHeaderBytes, 99);
    sim::trace_codec::put_u32(
        b.data() + foot + 8,
        sim::trace_codec::crc32(b.data() + foot + ck::kBlockHeaderBytes,
                                ck::kFooterTotalBytes));
    expect_error(b, foot + ck::kBlockHeaderBytes,
                 "footer total disagrees with blocks");
  }
  {  // trailing bytes after the footer
    std::vector<std::uint8_t> b = good;
    b.push_back(0);
    expect_error(b, good.size(), "trailing bytes after footer");
  }
}

TEST(FleetCheckpointFormat, WriteFileIsAtomicAndReadable) {
  const std::string path = testing::TempDir() + "fleet_ckpt_atomic.ckpt";
  const std::vector<std::uint8_t> payload = sample_payload(4096);
  ck::write_file(path, 7, payload);
  // No tmp residue from the atomic rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  std::uint64_t hash = 0;
  EXPECT_EQ(ck::read_file(path, &hash), payload);
  EXPECT_EQ(hash, 7u);
  std::remove(path.c_str());
}

TEST(FleetCheckpointFormat, WriteFileObserverSeesOrderedDurabilityPoints) {
  // The WriteObserver seam must expose the real write pipeline: a torn
  // tmp prefix, the complete tmp before fsync, the fsync'd tmp before
  // rename, and the published path — in that order. The chaos harness
  // (fleet/chaos.h) injects crashes exactly here.
  struct Recorder : ck::WriteObserver {
    std::vector<std::string> calls;
    std::vector<long> sizes;
    static long file_size(const std::string& p) {
      std::FILE* f = std::fopen(p.c_str(), "rb");
      if (!f) return -1;
      std::fseek(f, 0, SEEK_END);
      const long n = std::ftell(f);
      std::fclose(f);
      return n;
    }
    void on_tmp_partial(const std::string& tmp) override {
      calls.push_back("partial");
      sizes.push_back(file_size(tmp));
    }
    void on_tmp_written(const std::string& tmp) override {
      calls.push_back("written");
      sizes.push_back(file_size(tmp));
    }
    void on_before_rename(const std::string& tmp) override {
      calls.push_back("rename");
      sizes.push_back(file_size(tmp));
    }
    void on_published(const std::string& path) override {
      calls.push_back("published");
      sizes.push_back(file_size(path));
    }
  };
  const std::string path = testing::TempDir() + "fleet_ckpt_observed.ckpt";
  std::remove(path.c_str());
  Recorder rec;
  ck::write_file(path, 3, sample_payload(5000), &rec);
  ASSERT_EQ(rec.calls, (std::vector<std::string>{"partial", "written",
                                                 "rename", "published"}));
  EXPECT_GT(rec.sizes[0], 0);
  EXPECT_LT(rec.sizes[0], rec.sizes[1]) << "on_tmp_partial saw a full file";
  EXPECT_EQ(rec.sizes[1], rec.sizes[2]);
  EXPECT_EQ(rec.sizes[2], rec.sizes[3]);
  std::uint64_t hash = 0;
  EXPECT_EQ(ck::read_file(path, &hash), sample_payload(5000));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Generational checkpoints.
// ---------------------------------------------------------------------------

TEST(FleetCheckpointGenerations, ListNextAndGcTrackTheFamily) {
  const std::string dir = testing::TempDir() + "fleet_gens";
  const std::string base = dir + "/n0.ckpt";
  const std::vector<const char*> names = {
      "n0.ckpt.1", "n0.ckpt.2",  "n0.ckpt.3", "n0.ckpt.7",
      "n0.ckpt.tmp", "n0.ckpt.7x", "n1.ckpt.9", "n0.ckpt"};
  for (const char* n : names) std::remove((dir + "/" + n).c_str());

  // Missing directory / no generations -> clean cold start.
  EXPECT_TRUE(ck::list_generations(base).empty());
  EXPECT_EQ(ck::next_generation(base), 1u);

  ASSERT_TRUE(::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST);
  for (const char* junk : names) {
    std::FILE* f = std::fopen((dir + "/" + junk).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputc('x', f);
    std::fclose(f);
  }

  // Only all-digit suffixes of THIS base count, ascending.
  std::vector<std::uint64_t> gens;
  for (const auto& g : ck::list_generations(base)) gens.push_back(g.gen);
  EXPECT_EQ(gens, (std::vector<std::uint64_t>{1, 2, 3, 7}));
  EXPECT_EQ(ck::next_generation(base), 8u);

  // GC keeps the newest `keep`, never touching neighbors.
  ck::gc_generations(base, 2);
  gens.clear();
  for (const auto& g : ck::list_generations(base)) gens.push_back(g.gen);
  EXPECT_EQ(gens, (std::vector<std::uint64_t>{3, 7}));
  EXPECT_TRUE(ck::list_generations(dir + "/n1.ckpt").size() == 1);
  std::FILE* f = std::fopen((dir + "/n0.ckpt.tmp").c_str(), "rb");
  EXPECT_NE(f, nullptr) << "gc deleted a non-generation file";
  if (f) std::fclose(f);

  ck::gc_generations(base, 1);
  ASSERT_EQ(ck::list_generations(base).size(), 1u);
  EXPECT_EQ(ck::list_generations(base)[0].gen, 7u);
  EXPECT_EQ(ck::generation_path(base, 7), base + ".7");
}

NodeConfig gen_node_config() {
  NodeConfig n;
  n.name = "mcf+gen";
  n.system.mem.cores = 2;
  n.system.security = secmem::SecurityParams::secddr_ctr();
  n.system.data_bytes = 4ull << 30;
  n.workload = "mcf";
  n.instructions = 800;
  n.warmup = 200;
  return n;
}

TEST(FleetCheckpointGenerations, RestoreFallsBackPastCorruptNewest) {
  const std::string dir = testing::TempDir() + "fleet_gen_fallback";
  ::mkdir(dir.c_str(), 0777);
  const std::string base = dir + "/node.ckpt";
  for (const auto& g : ck::list_generations(base))
    std::remove(g.path.c_str());

  const NodeConfig cfg = gen_node_config();
  Node a(cfg);
  ASSERT_TRUE(a.step(600));
  a.checkpoint_to_file(ck::generation_path(base, 1));
  ASSERT_TRUE(a.step(600));
  a.checkpoint_to_file(ck::generation_path(base, 2));

  // Newest generation corrupted: restore must fall back to gen 1 and
  // the completed run must still be bit-identical to the uninterrupted
  // one.
  {
    std::FILE* f = std::fopen(ck::generation_path(base, 2).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 48, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 48, SEEK_SET);
    std::fputc((c == EOF ? 0 : c) ^ 0x40, f);
    std::fclose(f);
  }
  Node b(cfg);
  EXPECT_EQ(b.restore_latest(base), 1u);
  while (!a.finished()) a.step(100000);
  while (!b.finished()) b.step(100000);
  EXPECT_EQ(ck::encode_result(b.result()), ck::encode_result(a.result()));

  // Both generations corrupt: a distinct, attributable error — silently
  // restarting from zero would fabricate history.
  {
    std::FILE* f = std::fopen(ck::generation_path(base, 1).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 48, SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);
  }
  Node c(cfg);
  try {
    c.restore_latest(base);
    FAIL() << "all-corrupt generations must throw";
  } catch (const CheckpointUnrecoverableError& e) {
    EXPECT_EQ(e.base(), base);
    EXPECT_EQ(e.generations(), 2u);
    EXPECT_NE(std::string(e.what()).find("unrecoverable"), std::string::npos);
  }

  // An empty family is a cold start, not an error.
  for (const auto& g : ck::list_generations(base))
    std::remove(g.path.c_str());
  Node d(cfg);
  EXPECT_EQ(d.restore_latest(base), 0u);
}

// ---------------------------------------------------------------------------
// System-level checkpoint/restore.
// ---------------------------------------------------------------------------

sim::SystemConfig small_config(unsigned channels, bool event_driven) {
  sim::SystemConfig cfg;
  cfg.mem.cores = 2;
  cfg.security = secmem::SecurityParams::secddr_ctr();
  cfg.geometry.channels = channels;
  cfg.data_bytes = 4ull << 30;  // two cores at 2GB trace stride
  cfg.event_driven = event_driven;
  return cfg;
}

struct LiveSystem {
  std::vector<std::unique_ptr<workloads::SyntheticTrace>> traces;
  std::unique_ptr<sim::System> sys;
};

LiveSystem make_system(const workloads::WorkloadDesc& desc,
                       const sim::SystemConfig& cfg) {
  LiveSystem s;
  std::vector<sim::TraceSource*> ptrs;
  for (unsigned c = 0; c < cfg.mem.cores; ++c) {
    s.traces.push_back(std::make_unique<workloads::SyntheticTrace>(desc, c));
    ptrs.push_back(s.traces.back().get());
  }
  s.sys = std::make_unique<sim::System>(cfg, ptrs);
  return s;
}

TEST(FleetSystemCheckpoint, MidRunRestoreIsBitIdenticalAcrossConfigs) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  for (const unsigned channels : {1u, 2u, 4u}) {
    for (const bool event_driven : {false, true}) {
      SCOPED_TRACE(std::to_string(channels) + "ch/event_driven=" +
                   std::to_string(event_driven));
      const sim::SystemConfig cfg = small_config(channels, event_driven);

      // Uninterrupted reference.
      LiveSystem ref = make_system(*desc, cfg);
      const std::vector<std::uint8_t> ref_bytes = ck::encode_result(
          ref.sys->run(1200, 2'000'000'000, /*warmup=*/400));

      // Interrupted run: checkpoint mid-flight (a budget that lands
      // inside the warmup or early measured phase), restore into a
      // FRESH System, finish both, compare all three byte-for-byte.
      LiveSystem a = make_system(*desc, cfg);
      a.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ASSERT_TRUE(a.sys->step(1500)) << "budget larger than the whole run";
      const std::vector<std::uint8_t> image = ck::encode_system(*a.sys);

      LiveSystem b = make_system(*desc, cfg);
      b.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ck::decode_system(*b.sys, image.data(), image.size(), "mid.ckpt");

      while (a.sys->step(kNoEvent)) {
      }
      while (b.sys->step(kNoEvent)) {
      }
      EXPECT_EQ(ck::encode_result(a.sys->result()), ref_bytes);
      EXPECT_EQ(ck::encode_result(b.sys->result()), ref_bytes);
    }
  }
}

TEST(FleetSystemCheckpoint, MidRunRestoreRoundTripsThermalState) {
  // Power accounting + both thermal policies enabled: the checkpoint
  // carries the remap table, in-window command counts, fixed-point rank
  // temperatures, and throttle engagement. A mid-run restore must finish
  // bit-identically to the uninterrupted run — across both loop modes
  // and a multi-channel backend (encode_result covers the power reports,
  // so temperature trajectories are compared too).
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  dram::PowerConfig power;
  power.enabled = true;
  power.window_cycles = 256;
  power.thermal.c_nj_per_k = 500;  // fast node: policies act inside the run
  power.throttle = true;
  power.trip_mc = 46'500;
  power.release_mc = 46'200;
  power.remap = true;
  power.remap_delta_mc = 100;
  power.remap_min_windows = 2;
  for (const unsigned channels : {1u, 2u}) {
    for (const bool event_driven : {false, true}) {
      SCOPED_TRACE(std::to_string(channels) + "ch/event_driven=" +
                   std::to_string(event_driven));
      sim::SystemConfig cfg = small_config(channels, event_driven);
      cfg.power = power;

      LiveSystem ref = make_system(*desc, cfg);
      const std::vector<std::uint8_t> ref_bytes = ck::encode_result(
          ref.sys->run(1200, 2'000'000'000, /*warmup=*/400));

      LiveSystem a = make_system(*desc, cfg);
      a.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ASSERT_TRUE(a.sys->step(1500)) << "budget larger than the whole run";
      const std::vector<std::uint8_t> image = ck::encode_system(*a.sys);

      LiveSystem b = make_system(*desc, cfg);
      b.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      ck::decode_system(*b.sys, image.data(), image.size(), "thermal.ckpt");
      while (a.sys->step(kNoEvent)) {
      }
      while (b.sys->step(kNoEvent)) {
      }
      EXPECT_EQ(ck::encode_result(a.sys->result()), ref_bytes);
      EXPECT_EQ(ck::encode_result(b.sys->result()), ref_bytes);

      // A power-enabled config hashes differently from the default, so
      // this checkpoint cannot restore into a power-off System.
      LiveSystem plain =
          make_system(*desc, small_config(channels, event_driven));
      plain.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
      EXPECT_THROW(ck::decode_system(*plain.sys, image.data(), image.size(),
                                     "thermal.ckpt"),
                   CheckpointFormatError);
    }
  }
}

TEST(FleetSystemCheckpoint, RestoreCrossesLoopMode) {
  // config_hash() excludes the loop mode, so a checkpoint written by the
  // per-cycle loop must restore into an event-driven System — and still
  // finish bit-identically.
  const auto* desc = workloads::find("lbm");
  ASSERT_NE(desc, nullptr);
  LiveSystem writer =
      make_system(*desc, small_config(2, /*event_driven=*/false));
  writer.sys->begin(1000, 2'000'000'000, /*warmup=*/300);
  ASSERT_TRUE(writer.sys->step(900));
  const std::vector<std::uint8_t> image = ck::encode_system(*writer.sys);
  while (writer.sys->step(kNoEvent)) {
  }

  LiveSystem reader =
      make_system(*desc, small_config(2, /*event_driven=*/true));
  reader.sys->begin(1000, 2'000'000'000, /*warmup=*/300);
  ck::decode_system(*reader.sys, image.data(), image.size(), "cross.ckpt");
  while (reader.sys->step(kNoEvent)) {
  }
  EXPECT_EQ(ck::encode_result(reader.sys->result()),
            ck::encode_result(writer.sys->result()));
}

TEST(FleetSystemCheckpoint, ConfigHashMismatchIsRejectedAtOffset16) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  LiveSystem writer =
      make_system(*desc, small_config(1, /*event_driven=*/true));
  writer.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  ASSERT_TRUE(writer.sys->step(500));
  const std::vector<std::uint8_t> image = ck::encode_system(*writer.sys);

  // A different security configuration is a different config hash.
  sim::SystemConfig other = small_config(1, /*event_driven=*/true);
  other.security = secmem::SecurityParams::baseline_tree_ctr();
  LiveSystem reader = make_system(*desc, other);
  reader.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  try {
    ck::decode_system(*reader.sys, image.data(), image.size(), "wrong.ckpt");
    FAIL() << "config-hash mismatch must throw";
  } catch (const CheckpointFormatError& e) {
    EXPECT_EQ(e.offset(), 16u) << e.what();
    EXPECT_NE(std::string(e.what()).find("different simulation configuration"),
              std::string::npos)
        << e.what();
  }

  // The loop mode is execution-equivalent, so it hashes identically.
  EXPECT_EQ(writer.sys->config_hash(),
            make_system(*desc, small_config(1, /*event_driven=*/false))
                .sys->config_hash());
  EXPECT_NE(writer.sys->config_hash(), reader.sys->config_hash());
}

/// 64-bit FNV-1a, the hash System::config_hash() applies to its bytes.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(FleetSystemCheckpoint, ConfigHashIsPinnedPerPreset) {
  // Pinned values: a change here decides which checkpoints restore into
  // which configs, so it must come with a checkpoint kVersion bump.
  using secmem::Encryption;
  using secmem::SecurityParams;
  struct Pin {
    SecurityParams params;
    std::uint64_t plain;   ///< every other field at its default
    std::uint64_t loaded;  ///< 2-ch DDR4-2400, power + throttle + remap
  };
  const Pin pins[] = {
      {SecurityParams::baseline_tree_ctr(), 0x6ffb956be1ed62d8ull,
       0x58ee76778f95618aull},
      {SecurityParams::secddr_ctr(), 0xcdc2d9e88f6a74e8ull,
       0x381f2bc03384a796ull},
      {SecurityParams::encrypt_only_ctr(), 0x450f25ff85a03224ull,
       0x373cbfc8ef3d464eull},
      {SecurityParams::secddr_xts(), 0x1fa0c2d933f00389ull,
       0xb1b90910f45dfbbfull},
      {SecurityParams::encrypt_only_xts(), 0x27c9e8fb8a05d7c1ull,
       0xb465591e42438c3bull},
      {SecurityParams::invisimem(Encryption::kCounterMode),
       0x4e3fe1cd35dda202ull, 0xc8b84f7a77c65c6cull},
      {SecurityParams::hash_tree8_xts(), 0x52e467406d1dd49full,
       0x75f2064356e6423dull},
  };
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.params.name);
    sim::SystemConfig cfg;
    cfg.security = p.params;
    EXPECT_EQ(make_system(*desc, cfg).sys->config_hash(), p.plain);
    cfg.geometry.channels = 2;
    cfg.timings = dram::Timings::ddr4_2400();
    cfg.power.enabled = true;
    cfg.power.throttle = true;
    cfg.power.remap = true;
    EXPECT_EQ(make_system(*desc, cfg).sys->config_hash(), p.loaded);
  }
}

TEST(FleetSystemCheckpoint, MidRunImageBytesArePinned) {
  // FNV-1a of a whole mid-run checkpoint pins every component's save()
  // layout; the power-on image adds the controllers' power blocks.
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  for (const bool power : {false, true}) {
    SCOPED_TRACE(power ? "power on" : "power off");
    sim::SystemConfig cfg = small_config(2, /*event_driven=*/true);
    cfg.power.enabled = power;
    cfg.power.window_cycles = 256;
    cfg.power.thermal.c_nj_per_k = 500;
    cfg.power.throttle = power;
    cfg.power.trip_mc = 46'500;
    cfg.power.release_mc = 46'200;
    cfg.power.remap = power;
    cfg.power.remap_delta_mc = 100;
    cfg.power.remap_min_windows = 2;
    LiveSystem live = make_system(*desc, cfg);
    live.sys->begin(1200, 2'000'000'000, /*warmup=*/400);
    ASSERT_TRUE(live.sys->step(1500));
    EXPECT_EQ(fnv1a(ck::encode_system(*live.sys)),
              power ? 0xec72b785b7a476c7ull : 0xcbe98ae8b81ffb27ull);
  }
}

TEST(FleetSystemCheckpoint, TruncatedSystemPayloadReportsOffset) {
  const auto* desc = workloads::find("mcf");
  ASSERT_NE(desc, nullptr);
  LiveSystem writer =
      make_system(*desc, small_config(1, /*event_driven=*/true));
  writer.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  ASSERT_TRUE(writer.sys->step(500));
  serial::Sink s;
  writer.sys->save(s);
  std::vector<std::uint8_t> payload = s.take();
  payload.resize(payload.size() / 2);  // cut the state mid-stream
  const std::vector<std::uint8_t> image =
      ck::encode(writer.sys->config_hash(), payload);

  LiveSystem reader =
      make_system(*desc, small_config(1, /*event_driven=*/true));
  reader.sys->begin(600, 2'000'000'000, /*warmup=*/200);
  try {
    ck::decode_system(*reader.sys, image.data(), image.size(), "cut.ckpt");
    FAIL() << "truncated system payload must throw";
  } catch (const CheckpointFormatError& e) {
    EXPECT_EQ(e.path(), "cut.ckpt");
    // The offset points into the (container-framed) payload, past the
    // header and at or before the truncation point.
    EXPECT_GE(e.offset(), ck::kHeaderBytes);
    EXPECT_LE(e.offset(), ck::kHeaderBytes + payload.size());
  }
}

}  // namespace
}  // namespace secddr::fleet
