// Secure-memory timing models: metadata layout, metadata cache, and the
// per-configuration traffic/latency semantics of the SecurityEngine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/random.h"
#include "common/serial.h"
#include "dram/system.h"
#include "secmem/layout.h"
#include "secmem/metadata_cache.h"
#include "secmem/model.h"
#include "secmem/params.h"

namespace secddr::secmem {
namespace {

constexpr std::uint64_t kDataBytes = 1ull << 30;  // 1GB data region

dram::Geometry small_geometry() {
  dram::Geometry g;
  g.rows_per_bank = 1 << 14;  // 4GB capacity: room for metadata
  return g;
}

// Harness: engine + DRAM, driven in core cycles.
struct Rig {
  explicit Rig(SecurityParams p)
      : params(std::move(p)),
        layout(params, kDataBytes),
        dram(small_geometry(),
             params.ewcrc ? dram::Timings::ddr4_3200().with_ewcrc_burst()
                          : dram::Timings::ddr4_3200(),
             3200.0),
        engine(params, layout, dram) {}

  // Runs until all outstanding work drains; returns ready reads.
  std::vector<ReadReady> drain(Cycle limit = 1'000'000) {
    std::vector<ReadReady> out;
    while (engine.outstanding() > 0 && now < limit) {
      ++now;
      dram.tick_core_cycle();
      engine.tick(now);
      for (const auto& r : engine.ready()) out.push_back(r);
      engine.ready().clear();
    }
    return out;
  }

  SecurityParams params;
  MetadataLayout layout;
  dram::DramSystem dram;
  SecurityEngine engine;
  Cycle now = 0;
};

// ---------------------------------------------------------------- params

TEST(Params, NamedConfigsAreDistinct) {
  EXPECT_EQ(SecurityParams::baseline_tree_ctr().rap, Rap::kIntegrityTree);
  EXPECT_EQ(SecurityParams::secddr_ctr().rap, Rap::kSecDdr);
  EXPECT_TRUE(SecurityParams::secddr_ctr().ewcrc);
  EXPECT_TRUE(SecurityParams::secddr_xts().ewcrc);
  EXPECT_FALSE(SecurityParams::encrypt_only_xts().verify_mac);
  EXPECT_EQ(SecurityParams::invisimem(Encryption::kXts).rap,
            Rap::kAuthChannel);
  EXPECT_TRUE(SecurityParams::hash_tree8_xts().hash_tree_over_macs);
  EXPECT_FALSE(SecurityParams::hash_tree8_xts().macs_in_ecc);
}

// ---------------------------------------------------------------- layout

TEST(Layout, CounterRegionSizedByPacking) {
  for (unsigned pack : {8u, 64u, 128u}) {
    MetadataLayout l(SecurityParams::encrypt_only_ctr(pack), kDataBytes);
    EXPECT_EQ(l.counter_lines(), kDataBytes / kLineSize / pack);
  }
}

TEST(Layout, TreeLevelsShrinkByArity) {
  const MetadataLayout l(SecurityParams::baseline_tree_ctr(64, 64),
                         kDataBytes);
  // 1GB data, 64 counters/line -> 256K counter lines; 64-ary:
  // L1=4096, L2=64, then 1 (root, on-chip). => 2 stored levels.
  EXPECT_EQ(l.counter_lines(), (kDataBytes / kLineSize) / 64);
  ASSERT_EQ(l.tree_levels(), 2u);
  EXPECT_EQ(l.tree_nodes(1), 4096u);
  EXPECT_EQ(l.tree_nodes(2), 64u);
}

TEST(Layout, HashTreeIsMuchDeeper) {
  const MetadataLayout hash(SecurityParams::hash_tree8_xts(), kDataBytes);
  const MetadataLayout ctr64(SecurityParams::baseline_tree_ctr(64, 64),
                             kDataBytes);
  // 1GB: MAC lines = 2M; 8-ary: 256K, 32K, 4K, 512, 64, 8 -> 6 levels.
  EXPECT_EQ(hash.mac_lines(), (kDataBytes / kLineSize) / 8);
  EXPECT_GT(hash.tree_levels(), ctr64.tree_levels() + 2);
}

TEST(Layout, RegionsAreDisjointAndOrdered) {
  const MetadataLayout l(SecurityParams::baseline_tree_ctr(), kDataBytes);
  const Addr ctr = l.counter_line_addr(0);
  EXPECT_GE(ctr, kDataBytes);
  const Addr n1 = l.tree_node_addr(1, 0);
  const Addr n2 = l.tree_node_addr(2, 0);
  EXPECT_GT(n1, ctr);
  EXPECT_GT(n2, n1);
  EXPECT_LE(l.end_of_memory(),
            kDataBytes + l.metadata_bytes() + kLineSize);
}

TEST(Layout, AdjacentLinesShareCounterLine) {
  const MetadataLayout l(SecurityParams::encrypt_only_ctr(64), kDataBytes);
  EXPECT_EQ(l.counter_line_addr(0), l.counter_line_addr(63 * kLineSize));
  EXPECT_NE(l.counter_line_addr(0), l.counter_line_addr(64 * kLineSize));
}

TEST(Layout, TreePathIsConsistent) {
  const MetadataLayout l(SecurityParams::baseline_tree_ctr(), kDataBytes);
  // Data lines covered by the same counter line share the whole path.
  for (unsigned level = 1; level <= l.tree_levels(); ++level) {
    EXPECT_EQ(l.tree_node_addr(level, 0),
              l.tree_node_addr(level, 63 * kLineSize));
  }
}

// ---------------------------------------------------------------- cache

TEST(MetadataCacheTest, LookupMissThenInstallHit) {
  MetadataCache mc(4096, 4);
  EXPECT_FALSE(mc.lookup(0x1000));
  mc.install(0x1000, false);
  EXPECT_TRUE(mc.lookup(0x1000));
  EXPECT_EQ(mc.accesses(), 2u);
  EXPECT_EQ(mc.misses(), 1u);
}

TEST(MetadataCacheTest, DirtyVictimSurfacesOnInstall) {
  MetadataCache mc(128, 2);  // 1 set, 2 ways
  mc.install(0, false);
  EXPECT_TRUE(mc.mark_dirty(0));
  mc.install(64, false);
  const auto v = mc.install(128, false);
  EXPECT_TRUE(v.evicted);
  EXPECT_TRUE(v.victim_dirty);
  EXPECT_EQ(v.victim_addr, 0u);
}

// ---------------------------------------------------------------- engine

TEST(Engine, XtsReadIssuesExactlyOneDramRead) {
  Rig rig(SecurityParams::encrypt_only_xts());
  rig.engine.start_read(0x1000, 1, 0);
  const auto ready = rig.drain();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(rig.engine.stats().data_reads, 1u);
  EXPECT_EQ(rig.engine.stats().meta_reads(), 0u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 1u);
}

TEST(Engine, XtsReadLatencyIncludesAesLatency) {
  Rig rig(SecurityParams::encrypt_only_xts());
  rig.engine.start_read(0x1000, 1, 0);
  const auto ready = rig.drain();
  ASSERT_EQ(ready.size(), 1u);
  // AES latency (40 core cycles) beyond the raw DRAM completion.
  EXPECT_GE(ready[0].at, 40u);
}

TEST(Engine, CtrColdReadFetchesCounterLine) {
  Rig rig(SecurityParams::encrypt_only_ctr());
  rig.engine.start_read(0x1000, 1, 0);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 2u);  // data + counter
}

TEST(Engine, CtrWarmReadHitsCounterCache) {
  Rig rig(SecurityParams::encrypt_only_ctr());
  rig.engine.start_read(0x1000, 1, 0);
  rig.drain();
  // Second read of a line sharing the counter line: counter cached.
  rig.engine.start_read(0x1040, 2, rig.now);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 3u);
}

TEST(Engine, SecDdrAddsNoMetadataTrafficOverEncryptOnly) {
  // The paper's core claim in traffic terms: SecDDR+XTS == encrypt-only
  // XTS on the memory bus.
  Rig secddr(SecurityParams::secddr_xts());
  Rig enc(SecurityParams::encrypt_only_xts());
  for (int i = 0; i < 50; ++i) {
    secddr.engine.start_read(static_cast<Addr>(i) * 4096, i, 0);
    enc.engine.start_read(static_cast<Addr>(i) * 4096, i, 0);
  }
  secddr.drain();
  enc.drain();
  EXPECT_EQ(secddr.dram.stats().reads_completed,
            enc.dram.stats().reads_completed);
  EXPECT_EQ(secddr.engine.stats().meta_reads(), 0u);
}

TEST(Engine, TreeColdReadWalksToRoot) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_read(0x2000, 1, 0);
  rig.drain();
  // Cold: counter + both stored levels fetched (root on-chip).
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u);
  EXPECT_EQ(rig.engine.stats().reads_with_tree_walk, 1u);
  EXPECT_EQ(rig.dram.stats().reads_completed, 4u);
}

TEST(Engine, TreeWalkTerminatesAtCachedNode) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_read(0x2000, 1, 0);
  rig.drain();
  // A different counter line under the SAME L1 node: walk stops at L1.
  // Counter lines cover 64*64B = 4KB; L1 nodes cover 64 counter lines
  // = 256KB. 8KB away => same L1 node, different counter line.
  rig.engine.start_read(0x2000 + 8192, 2, rig.now);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 2u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u)
      << "no additional node fetches: L1 hit terminates the walk";
}

TEST(Engine, TreeCachedCounterSkipsWalkEntirely) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_read(0x2000, 1, 0);
  rig.drain();
  rig.engine.start_read(0x2040, 2, rig.now);  // same counter line
  rig.drain();
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u);
}

TEST(Engine, TreeWriteDirtiesEveryLevel) {
  Rig rig(SecurityParams::baseline_tree_ctr());
  rig.engine.start_write(0x3000, 0);
  rig.drain();
  // Write fetched counter + all levels (RMW) and issued the data write.
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u);
  EXPECT_EQ(rig.engine.stats().tree_node_fetches, 2u);
  EXPECT_EQ(rig.dram.stats().writes_completed, 1u);
  // Now evict the dirtied metadata by touching many distinct regions:
  // dirty writebacks must eventually reach DRAM. (128KB cache, 8-way.)
  for (int i = 0; i < 40000; ++i)
    rig.engine.start_read(static_cast<Addr>(i) * 4096, 100 + i, rig.now);
  rig.drain(20'000'000);
  EXPECT_GT(rig.engine.stats().meta_writebacks, 0u);
}

TEST(Engine, HashTreeReadFetchesMacLine) {
  Rig rig(SecurityParams::hash_tree8_xts());
  rig.engine.start_read(0x4000, 1, 0);
  rig.drain();
  EXPECT_EQ(rig.engine.stats().mac_line_fetches, 1u);
  EXPECT_GT(rig.engine.stats().tree_node_fetches, 3u);
}

TEST(Engine, AuthChannelAddsLatencyNotTraffic) {
  Rig inv(SecurityParams::invisimem(Encryption::kXts));
  Rig enc(SecurityParams::encrypt_only_xts());
  inv.engine.start_read(0x5000, 1, 0);
  enc.engine.start_read(0x5000, 1, 0);
  const auto r_inv = inv.drain();
  const auto r_enc = enc.drain();
  ASSERT_EQ(r_inv.size(), 1u);
  ASSERT_EQ(r_enc.size(), 1u);
  EXPECT_EQ(inv.dram.stats().reads_completed, 1u);
  // 2x MAC latency (80 cycles) dominates the XTS 40: +40 over enc-only.
  EXPECT_EQ(r_inv[0].at - r_enc[0].at, 40u);
}

TEST(Engine, SecDdrReadReadyAfterMacLatency) {
  Rig secddr(SecurityParams::secddr_xts());
  Rig enc(SecurityParams::encrypt_only_xts());
  secddr.engine.start_read(0x6000, 1, 0);
  enc.engine.start_read(0x6000, 1, 0);
  const auto r1 = secddr.drain();
  const auto r2 = enc.drain();
  ASSERT_EQ(r1.size(), 1u);
  // MAC verify (40) runs in parallel with XTS decrypt (40): same ready
  // time as encrypt-only — the <1% claim's latency half.
  EXPECT_EQ(r1[0].at, r2[0].at);
}

TEST(Engine, MetaArrivalStampsDramFinishNotTickTime) {
  // Metadata done times must come from the DRAM completion's finish
  // cycle (as the data path's data_done already does), so the verified
  // ready time cannot drift with how often the engine is ticked.
  const auto ready_at = [](Cycle step) {
    Rig rig(SecurityParams::encrypt_only_ctr());
    rig.engine.start_read(0x1000, 1, 0);
    std::vector<ReadReady> out;
    while (rig.engine.outstanding() > 0 && rig.now < 100000) {
      ++rig.now;
      rig.dram.tick_core_cycle();
      if (rig.now % step == 0) {
        rig.engine.tick(rig.now);
        for (const auto& r : rig.engine.ready()) out.push_back(r);
        rig.engine.ready().clear();
      }
    }
    EXPECT_EQ(out.size(), 1u);
    return out.empty() ? Cycle{0} : out[0].at;
  };
  const Cycle fine = ready_at(1);
  EXPECT_GT(fine, 0u);
  EXPECT_EQ(ready_at(7), fine);
  EXPECT_EQ(ready_at(13), fine);
}

TEST(Engine, SharedFetchesAreDeduplicated) {
  Rig rig(SecurityParams::encrypt_only_ctr());
  // Two reads under the same counter line, back to back.
  rig.engine.start_read(0x1000, 1, 0);
  rig.engine.start_read(0x1040, 2, 0);
  const auto ready = rig.drain();
  EXPECT_EQ(ready.size(), 2u);
  EXPECT_EQ(rig.engine.stats().counter_fetches, 1u)
      << "concurrent misses on one counter line must share the fetch";
}

// ---------------------------------------------------------------- horizon

// The forwarding paths the reference scan found at one query.
struct ForwardPaths {
  std::set<Addr> read_lines;    // lines with a deferred read
  std::set<Addr> queued_write;  // ... of which the DRAM queues a write
  bool write_ahead = false;     // a deferred write precedes a same-line read
};

// The ready_bound the engine computed before it kept write-forwarding
// state per line: every call rescans the deferred-issue queue, checking
// each deferred read against the DRAM write FIFO and against every
// earlier queue entry (quadratic in the queue length). Kept here as the
// oracle for the engine's O(1) answer.
Cycle scan_ready_bound(const SecurityEngine& engine,
                       const dram::DramSystem& dram, Cycle now,
                       ForwardPaths& paths) {
  paths = {};
  if (dram.has_undrained_completions()) return now + 1;
  Cycle bound = kNoEvent;
  const Cycle inflight = dram.inflight_read_finish();
  if (inflight != kNoEvent)
    bound = now + dram.core_cycles_until_mem(inflight);
  const auto& q = engine.deferred_issues();
  for (auto p = q.begin(); p != q.end(); ++p) {
    if (p->is_write) continue;
    paths.read_lines.insert(line_base(p->addr));
    if (dram.has_queued_write_to_line(p->addr))
      paths.queued_write.insert(line_base(p->addr));
    for (auto w = q.begin(); w != p; ++w)
      if (w->is_write && line_base(w->addr) == line_base(p->addr)) {
        paths.write_ahead = true;
        break;
      }
  }
  if (dram.queued_reads() > 0 || !paths.read_lines.empty()) {
    const bool forward = !paths.queued_write.empty() || paths.write_ahead;
    const Cycle column = now + dram.core_cycles_until_mem(
                                   dram.memory_cycle() + dram.timings().tCL);
    bound = std::min(bound, forward ? std::min(column, now + 2) : column);
  }
  return bound;
}

// A seeded tree64+ctr stream of up to three requests a cycle keeps the
// deferred-issue queue long. Writes and 1% of reads go to a 64-line hot
// set; the other reads go to 4096 lines that are never written and keep
// the DRAM read queue full. Few deferred reads can forward at once, so a
// stale per-line flag shows in the bound instead of hiding behind another
// forwardable line. The engine's ready_bound must equal the scan after
// every tick and every batch of requests, including after a mid-run save
// and load into fresh objects (load() rebuilds the per-line state).
TEST(Horizon, ReadyBoundMatchesQueueScan) {
  const SecurityParams params = SecurityParams::baseline_tree_ctr();
  auto rig = std::make_unique<Rig>(params);
  Xoshiro256 rng(12);
  // Rows of 16 (hot) or 64 (cold) lines, 1MB apart.
  const auto rows = [](Addr base, Addr n_rows, Addr per_row) {
    std::vector<Addr> lines;
    for (Addr i = 0; i < n_rows * per_row; ++i)
      lines.push_back(base + (i / per_row) * (Addr{1} << 20) +
                      (i % per_row) * kLineSize);
    return lines;
  };
  const std::vector<Addr> hot = rows(0, 4, 16);
  const std::vector<Addr> cold = rows(Addr{256} << 20, 64, 64);
  const auto pick = [&](const std::vector<Addr>& lines) {
    return lines[rng.next_below(lines.size())];
  };

  // Write merges so far: writes complete once per column or merge, and
  // the write columns are all columns minus the reads that left the
  // read queue.
  const auto merges = [&] {
    const dram::ControllerStats& s = rig->dram.stats();
    return s.writes_completed -
           (s.row_hits + s.row_misses -
            (s.reads_enqueued - rig->dram.queued_reads()));
  };

  std::size_t max_deferred = 0;
  std::uint64_t queued_write_hits = 0, write_ahead_hits = 0;
  std::uint64_t cleared = 0, deferred_merges = 0;
  std::set<Addr> last_queued;
  ForwardPaths paths;
  const auto check = [&](const char* where) {
    const Cycle want = scan_ready_bound(rig->engine, rig->dram, rig->now,
                                        paths);
    const Cycle got = rig->engine.ready_bound(rig->now);
    if (got != want) {
      ADD_FAILURE() << where << " at cycle " << rig->now << ": ready_bound "
                    << got << ", scan " << want;
      return false;
    }
    if (rig->dram.has_undrained_completions()) return true;
    queued_write_hits += !paths.queued_write.empty();
    write_ahead_hits += paths.write_ahead;
    // A line still read-deferred whose queued write has gone: it issued.
    for (const Addr line : last_queued)
      cleared += paths.read_lines.count(line) &&
                 !paths.queued_write.count(line);
    last_queued = paths.queued_write;
    return true;
  };

  constexpr Cycle kStreamCycles = 30000;
  constexpr Cycle kSaveAt = kStreamCycles / 2;
  bool restored = false;
  std::uint64_t tag = 0;
  while (rig->now < kStreamCycles || rig->engine.outstanding() > 0) {
    ASSERT_LT(rig->now, 1'000'000u) << "stream never drained";
    if (rig->now == kSaveAt) {
      serial::Sink s;
      rig->dram.save(s);
      rig->engine.save(s);
      auto fresh = std::make_unique<Rig>(params);
      serial::Source src(s.data());
      fresh->dram.load(src);
      fresh->engine.load(src);
      fresh->now = rig->now;
      ASSERT_FALSE(fresh->engine.deferred_issues().empty());
      rig = std::move(fresh);
      restored = true;
      if (!check("after load")) return;
    }
    const bool deferred = !rig->engine.deferred_issues().empty();
    const std::uint64_t merges_before = merges();
    ++rig->now;
    rig->dram.tick_core_cycle();
    rig->engine.tick(rig->now);
    rig->engine.ready().clear();
    if (deferred) deferred_merges += merges() - merges_before;
    if (!check("after tick")) return;
    if (rig->now < kStreamCycles &&
        rig->engine.deferred_issues().size() < 96) {
      for (auto n = rng.next_below(4); n > 0; --n) {
        if (rng.next_below(2) == 0)
          rig->engine.start_write(pick(hot), rig->now);
        else
          rig->engine.start_read(
              pick(rng.next_below(100) == 0 ? hot : cold), ++tag, rig->now);
      }
      if (!check("after requests")) return;
    }
    max_deferred = std::max(max_deferred, rig->engine.deferred_issues().size());
  }

  // The stream exercised every path the per-line state tracks.
  EXPECT_TRUE(restored);
  EXPECT_GT(max_deferred, 64u);
  EXPECT_GT(queued_write_hits, 0u) << "forward via a DRAM-queued write";
  EXPECT_GT(write_ahead_hits, 0u) << "forward via a deferred write ahead";
  EXPECT_GT(cleared, 0u) << "a write issue ended a line's forwarding";
  EXPECT_GT(deferred_merges, 0u) << "a retried write merged in DRAM";
}

}  // namespace
}  // namespace secddr::secmem
