// DRAM substrate: timing presets, address mapping, bank state machine,
// and controller scheduling properties under randomized request streams.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/serial.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/controller.h"
#include "dram/system.h"
#include "dram/timings.h"

namespace secddr::dram {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.ranks = 2;
  g.bank_groups = 4;
  g.banks_per_group = 4;
  g.rows_per_bank = 1 << 10;
  g.columns_per_row = 128;
  return g;
}

// ---------------------------------------------------------------- timings

TEST(Timings, Table1Defaults) {
  const Timings t = Timings::ddr4_3200();
  EXPECT_EQ(t.tCL, 22u);
  EXPECT_EQ(t.tRCD, 22u);
  EXPECT_EQ(t.tRP, 22u);
  EXPECT_EQ(t.tRAS, 56u);
  EXPECT_EQ(t.tCCD_S, 4u);
  EXPECT_EQ(t.tCCD_L, 10u);
  EXPECT_EQ(t.tCWL, 16u);
  EXPECT_EQ(t.tWTR_S, 4u);
  EXPECT_EQ(t.tWTR_L, 12u);
  EXPECT_DOUBLE_EQ(t.clock_mhz, 1600.0);
}

TEST(Timings, EwcrcExtendsWriteBurstOnly) {
  const Timings base = Timings::ddr4_3200();
  const Timings e = base.with_ewcrc_burst();
  EXPECT_EQ(e.write_burst_cycles, base.write_burst_cycles + 1);  // BL8->BL10
  EXPECT_EQ(e.read_burst_cycles, base.read_burst_cycles);
  EXPECT_EQ(e.tCL, base.tCL);
}

TEST(Timings, Ddr42400KeepsWallClockLatency) {
  const Timings full = Timings::ddr4_3200();
  const Timings derated = Timings::ddr4_2400();
  EXPECT_DOUBLE_EQ(derated.clock_mhz, 1200.0);
  // Same (or slightly larger, due to ceil) nanosecond latency.
  const double full_ns = full.tCL * full.ns_per_cycle();
  const double derated_ns = derated.tCL * derated.ns_per_cycle();
  EXPECT_GE(derated_ns, full_ns - 1e-9);
  EXPECT_LE(derated_ns, full_ns + derated.ns_per_cycle());
}

TEST(Timings, GeometryCapacity) {
  Geometry g;  // 2 ranks x 16 banks x 64K rows x 128 cols x 64B = 16GB
  EXPECT_EQ(g.capacity_bytes(), 16ull << 30);
  EXPECT_EQ(g.total_banks(), 32u);
}

// ---------------------------------------------------------------- address

TEST(AddressMapping, DecodeEncodeRoundTrip) {
  const Geometry g = small_geometry();
  const AddressMapping m(g, /*xor_banks=*/true);
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const Addr a = line_base(rng.next() % g.capacity_bytes());
    const DecodedAddr d = m.decode(a);
    EXPECT_LT(d.rank, g.ranks);
    EXPECT_LT(d.bank_group, g.bank_groups);
    EXPECT_LT(d.bank, g.banks_per_group);
    EXPECT_LT(d.row, g.rows_per_bank);
    EXPECT_LT(d.column, g.columns_per_row);
    EXPECT_EQ(m.encode(d), a);
  }
}

TEST(AddressMapping, SequentialLinesShareRow) {
  const Geometry g = small_geometry();
  const AddressMapping m(g, true);
  const DecodedAddr d0 = m.decode(0);
  const DecodedAddr d1 = m.decode(64);
  EXPECT_EQ(d0.row, d1.row);
  EXPECT_EQ(d0.flat_bank(g), d1.flat_bank(g));
  EXPECT_EQ(d0.column + 1, d1.column);
}

TEST(AddressMapping, XorSpreadsConflictStreams) {
  // Addresses that differ only in row bits should not all land in the
  // same bank when XOR permutation is on.
  const Geometry g = small_geometry();
  const AddressMapping m(g, true);
  std::set<unsigned> banks;
  const Addr row_stride = static_cast<Addr>(g.columns_per_row) * kLineSize *
                          g.bank_groups * g.banks_per_group * g.ranks;
  for (Addr r = 0; r < 16; ++r)
    banks.insert(m.decode(r * row_stride).flat_bank(g));
  EXPECT_GT(banks.size(), 4u);
}

// ---------------------------------------------------------------- bank

TEST(Bank, ActivateOpensRowAndSetsTimings) {
  Bank b;
  EXPECT_FALSE(b.is_open());
  b.activate(42, 100, 22, 56);
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.open_row, 42);
  EXPECT_EQ(b.next_read, 122u);
  EXPECT_EQ(b.next_precharge, 156u);
  b.precharge(200, 22);
  EXPECT_FALSE(b.is_open());
  EXPECT_EQ(b.next_activate, 222u);
}

// ---------------------------------------------------------------- oracle

/// JEDEC command-timing oracle. Re-derives every DDR4 rule the controller
/// must honour from `Timings` alone, watching only the command stream the
/// controller reports, and counts each violation. It shares no code with
/// the scheduler, so it checks the scheduler against the DDR4 rules rather
/// than against goldens captured from an earlier scheduler.
class TimingOracle : public CommandObserver {
 public:
  TimingOracle(const Geometry& g, const Timings& t)
      : g_(g), t_(t), banks_(g.total_banks()), ranks_(g.ranks) {
    for (RankHist& r : ranks_) r.wr_end.assign(g.bank_groups, 0);
  }

  void on_activate(const DecodedAddr& d, Cycle now) override {
    ++commands;
    BankHist& b = bank(d.rank, d.bank_group, d.bank);
    RankHist& r = ranks_[d.rank];
    require(!b.open, "ACT to an open bank", now);
    if (b.have_pre) require(now >= b.pre + t_.tRP, "tRP", now);
    if (r.have_act)
      require(now >= r.last_act + (r.last_act_bg == d.bank_group ? t_.tRRD_L
                                                                 : t_.tRRD_S),
              "tRRD_S/L", now);
    if (r.acts.size() >= 4)
      require(now >= r.acts[r.acts.size() - 4] + t_.tFAW, "tFAW", now);
    if (r.have_ref) require(now >= r.last_ref + t_.tRFC, "tRFC", now);
    b.open = true;
    b.row = d.row;
    b.act = now;
    b.pre_floor = now + t_.tRAS;
    r.acts.push_back(now);
    if (r.acts.size() > 4) r.acts.pop_front();
    r.have_act = true;
    r.last_act = now;
    r.last_act_bg = d.bank_group;
  }

  void on_precharge(unsigned rank, unsigned bg, unsigned bk,
                    Cycle now) override {
    ++commands;
    BankHist& b = bank(rank, bg, bk);
    require(b.open, "PRE to a closed bank", now);
    // pre_floor folds tRAS (from the ACT), tRTP (from each read) and tWR
    // (from each write's data end).
    require(now >= b.pre_floor, "tRAS/tRTP/tWR", now);
    b.open = false;
    b.have_pre = true;
    b.pre = now;
  }

  void on_column(const DecodedAddr& d, bool is_write, Cycle now) override {
    ++commands;
    BankHist& b = bank(d.rank, d.bank_group, d.bank);
    RankHist& r = ranks_[d.rank];
    require(b.open && b.row == d.row, "column to a closed bank or other row",
            now);
    require(now >= b.act + t_.tRCD, "tRCD", now);
    if (r.have_col)
      require(now >= r.last_col + (r.last_col_bg == d.bank_group ? t_.tCCD_L
                                                                 : t_.tCCD_S),
              "tCCD_S/L", now);
    if (!is_write)
      for (unsigned bg = 0; bg < g_.bank_groups; ++bg)
        if (r.wr_end[bg] != 0)  // a write data end is never cycle 0
          require(now >= r.wr_end[bg] + (bg == d.bank_group ? t_.tWTR_L
                                                           : t_.tWTR_S),
                  "tWTR_S/L", now);
    const Cycle start = now + (is_write ? t_.tCWL : t_.tCL);
    const Cycle end =
        start + (is_write ? t_.write_burst_cycles : t_.read_burst_cycles);
    if (have_burst_) {
      const bool turn = bus_write_ != is_write || bus_rank_ != d.rank;
      require(start >= bus_end_ + (turn ? t_.turnaround : 0),
              "data-bus overlap/turnaround", now);
    }
    have_burst_ = true;
    bus_end_ = end;
    bus_write_ = is_write;
    bus_rank_ = d.rank;
    r.have_col = true;
    r.last_col = now;
    r.last_col_bg = d.bank_group;
    if (is_write) {
      r.wr_end[d.bank_group] = std::max(r.wr_end[d.bank_group], end);
      b.pre_floor = std::max(b.pre_floor, end + t_.tWR);
    } else {
      b.pre_floor = std::max(b.pre_floor, now + t_.tRTP);
    }
  }

  void on_refresh(unsigned rank, Cycle now) override {
    ++commands;
    RankHist& r = ranks_[rank];
    for (unsigned bg = 0; bg < g_.bank_groups; ++bg)
      for (unsigned bk = 0; bk < g_.banks_per_group; ++bk) {
        const BankHist& b = bank(rank, bg, bk);
        require(!b.open, "REF with an open bank", now);
        if (b.have_pre) require(now >= b.pre + t_.tRP, "tRP before REF", now);
      }
    require(now - r.last_ref <= kMaxRefreshGap * t_.tREFI,
            "refresh interval > 9 x tREFI", now);
    r.have_ref = true;
    r.last_ref = now;
  }

  /// Applies the refresh-interval rule to the open tail of the stream.
  void finish(Cycle end) {
    for (const RankHist& r : ranks_)
      require(end - r.last_ref <= kMaxRefreshGap * t_.tREFI,
              "refresh interval > 9 x tREFI at end of stream", end);
  }

  std::uint64_t commands = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> first;  ///< the first few violation messages

 private:
  static constexpr Cycle kMaxRefreshGap = 9;
  struct BankHist {
    bool open = false;
    std::uint64_t row = 0;
    Cycle act = 0;
    Cycle pre_floor = 0;
    bool have_pre = false;
    Cycle pre = 0;
  };
  struct RankHist {
    std::deque<Cycle> acts;  ///< last four ACTs
    bool have_act = false;
    Cycle last_act = 0;
    unsigned last_act_bg = 0;
    bool have_col = false;
    Cycle last_col = 0;
    unsigned last_col_bg = 0;
    std::vector<Cycle> wr_end;  ///< latest write data end per bank group
    bool have_ref = false;
    Cycle last_ref = 0;
  };

  BankHist& bank(unsigned rank, unsigned bg, unsigned bk) {
    return banks_[rank * g_.banks_per_rank() + bg * g_.banks_per_group + bk];
  }
  void require(bool ok, const char* rule, Cycle now) {
    if (ok) return;
    ++violations;
    if (first.size() < 8)
      first.push_back(std::string(rule) + " at cycle " + std::to_string(now));
  }

  Geometry g_;
  Timings t_;
  std::vector<BankHist> banks_;
  std::vector<RankHist> ranks_;
  bool have_burst_ = false;
  Cycle bus_end_ = 0;
  bool bus_write_ = false;
  unsigned bus_rank_ = 0;
};

std::string describe(const TimingOracle& o) {
  std::string out = std::to_string(o.violations) + " violations in " +
                    std::to_string(o.commands) + " commands";
  for (const std::string& v : o.first) out += "\n  " + v;
  return out;
}

/// Power config whose thermal throttle engages under sustained traffic:
/// a low-mass node (tau ~ 2 us) with a trip point just above ambient.
PowerConfig throttling_power() {
  PowerConfig p;
  p.enabled = true;
  p.window_cycles = 256;
  p.thermal.c_nj_per_k = 500;
  p.throttle = true;
  p.trip_mc = 46'500;
  p.release_mc = 46'200;
  p.throttle_period = 4;
  return p;
}

// ---------------------------------------------------------------- controller

struct Harness {
  Geometry g = small_geometry();
  Timings t = Timings::ddr4_3200();
  Controller c{g, t};
  Cycle now = 0;
  std::map<std::uint64_t, Completion> done;

  void run_until_drained(Cycle limit = 2'000'000) {
    while (c.pending() > 0 && now < limit) {
      c.tick(now);
      for (const auto& comp : c.completions()) done[comp.tag] = comp;
      c.completions().clear();
      ++now;
    }
  }
};

TEST(Controller, SingleReadCompletesWithActRcdClBl) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x1000, false, 1, 0));
  h.run_until_drained();
  ASSERT_TRUE(h.done.count(1));
  // Cold read: ACT @1? (tick0 issues ACT) + tRCD + tCL + BL.
  const Cycle latency = h.done[1].finish - h.done[1].arrival;
  EXPECT_GE(latency, static_cast<Cycle>(h.t.tRCD + h.t.tCL +
                                        h.t.read_burst_cycles));
  EXPECT_LE(latency, static_cast<Cycle>(h.t.tRCD + h.t.tCL +
                                        h.t.read_burst_cycles + 4));
}

TEST(Controller, RowHitFasterThanRowMiss) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x0, false, 1, 0));
  h.run_until_drained();
  const Cycle cold = h.done[1].finish - h.done[1].arrival;
  // Same row again: hit.
  const Cycle t0 = h.now;
  ASSERT_TRUE(h.c.enqueue(64, false, 2, t0));
  h.run_until_drained();
  const Cycle hit = h.done[2].finish - h.done[2].arrival;
  EXPECT_LT(hit, cold);
  EXPECT_GE(hit, static_cast<Cycle>(h.t.tCL + h.t.read_burst_cycles));
}

TEST(Controller, AllRequestsEventuallyComplete) {
  Harness h;
  Xoshiro256 rng(7);
  std::uint64_t tag = 0;
  unsigned enqueued = 0;
  for (Cycle cyc = 0; cyc < 100000 && enqueued < 3000; ++cyc) {
    if (rng.chance(0.25)) {
      const Addr a = line_base(rng.next() % h.g.capacity_bytes());
      const bool w = rng.chance(0.3);
      if ((w && h.c.can_accept_write()) || (!w && h.c.can_accept_read())) {
        ASSERT_TRUE(h.c.enqueue(a, w, ++tag, cyc));
        ++enqueued;
      }
    }
    h.c.tick(cyc);
    for (const auto& comp : h.c.completions()) h.done[comp.tag] = comp;
    h.c.completions().clear();
    h.now = cyc + 1;
  }
  h.run_until_drained();
  EXPECT_EQ(h.c.pending(), 0u);
  EXPECT_EQ(h.c.stats().reads_completed + h.c.stats().writes_completed,
            enqueued);
}

TEST(Controller, ReadLatencyBoundedUnderLoad) {
  // Even under saturation no read should exceed a generous bound
  // (queue depth x worst-case service time) — catches starvation bugs.
  Harness h;
  Xoshiro256 rng(11);
  std::uint64_t tag = 0;
  for (Cycle cyc = 0; cyc < 50000; ++cyc) {
    if (h.c.can_accept_read() && rng.chance(0.5)) {
      const Addr a = line_base(rng.next() % h.g.capacity_bytes());
      h.c.enqueue(a, false, ++tag, cyc);
    }
    h.c.tick(cyc);
    for (const auto& comp : h.c.completions()) {
      EXPECT_LT(comp.finish - comp.arrival, 20000u)
          << "read starved: tag " << comp.tag;
    }
    h.c.completions().clear();
    h.now = cyc + 1;
  }
}

TEST(Controller, WriteForwardingServesReadsFromWriteQueue) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x4000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x4000, false, 2, 0));  // same line read
  h.run_until_drained();
  EXPECT_GE(h.c.stats().write_forwards, 1u);
  ASSERT_TRUE(h.done.count(2));
  // Forwarded read is fast (no DRAM access).
  EXPECT_LE(h.done[2].finish - h.done[2].arrival, h.t.tCL + 1);
}

TEST(Controller, WriteMergingCoalescesSameLine) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 2, 0));
  h.run_until_drained();
  EXPECT_EQ(h.c.stats().writes_enqueued, 2u);
  // Only one write burst hits the bus.
  EXPECT_EQ(h.c.stats().writes_completed, 2u);
  EXPECT_LE(h.c.stats().data_bus_busy_cycles,
            static_cast<std::uint64_t>(h.t.write_burst_cycles));
}

TEST(Controller, WriteMergeCompletesEachTagExactlyOnce) {
  // Three writes to one line merge into a single queue entry. Each
  // logical write must be counted and completed exactly once: the
  // superseded writes at merge time, the survivor when it issues.
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 2, 0));
  ASSERT_TRUE(h.c.enqueue(0x8000, true, 3, 0));
  std::map<std::uint64_t, unsigned> completions_per_tag;
  Cycle cyc = 0;
  while ((h.c.pending() > 0 || cyc == 0) && cyc < 100000) {
    h.c.tick(cyc);
    for (const auto& comp : h.c.completions()) {
      EXPECT_TRUE(comp.is_write);
      ++completions_per_tag[comp.tag];
    }
    h.c.completions().clear();
    ++cyc;
  }
  EXPECT_EQ(completions_per_tag[1], 1u);
  EXPECT_EQ(completions_per_tag[2], 1u);
  EXPECT_EQ(completions_per_tag[3], 1u);
  EXPECT_EQ(h.c.stats().writes_enqueued, 3u);
  EXPECT_EQ(h.c.stats().writes_completed, 3u);
  // Only the surviving entry touches the bus.
  EXPECT_EQ(h.c.stats().data_bus_busy_cycles,
            static_cast<std::uint64_t>(h.t.write_burst_cycles));
}

TEST(Controller, ForwardedReadsAreNotCountedAsEnqueued) {
  Harness h;
  ASSERT_TRUE(h.c.enqueue(0x4000, true, 1, 0));
  ASSERT_TRUE(h.c.enqueue(0x4000, false, 2, 0));  // forwarded
  EXPECT_EQ(h.c.stats().reads_enqueued, 0u)
      << "a forwarded read never enters the read queue";
  EXPECT_EQ(h.c.stats().write_forwards, 1u);
  EXPECT_EQ(h.c.stats().reads_completed, 1u);
  // A read that actually queues still counts.
  ASSERT_TRUE(h.c.enqueue(0x20000, false, 3, 0));
  EXPECT_EQ(h.c.stats().reads_enqueued, 1u);
  h.run_until_drained();
  EXPECT_EQ(h.c.stats().reads_completed, 2u);
}

/// One run of the next-event property: whenever next_event_cycle() says
/// "nothing before cycle N", every tick strictly before N must leave all
/// statistics unchanged and produce no completions.
struct PropertyCase {
  const char* name;
  SchedulingPolicy policy = SchedulingPolicy::kFrFcfs;
  Timings timings = Timings::ddr4_3200();
  PowerConfig power = {};
  std::uint64_t seed = 17;
  double rate = 0.05;        ///< enqueue attempts per cycle
  double write_frac = 0.4;
  bool write_bursts = false; ///< alternate write floods with quiet spells
  Cycle restore_at = 0;      ///< save/load into a fresh controller here
};

void check_next_event_property(const PropertyCase& pc) {
  SCOPED_TRACE(pc.name);
  const Geometry g = small_geometry();
  const auto make = [&] {
    return std::make_unique<Controller>(g, pc.timings, 64, 64, pc.policy,
                                        pc.power);
  };
  std::unique_ptr<Controller> c = make();
  // After a restore the donor keeps running uninterrupted beside the
  // restored controller; both must stay in lockstep.
  std::unique_ptr<Controller> twin;
  Xoshiro256 rng(pc.seed);
  std::uint64_t tag = 0;
  const auto snapshot = [](Controller& ctl) {
    const ControllerStats& s = ctl.stats();
    return std::make_tuple(s.reads_enqueued, s.writes_enqueued,
                           s.reads_completed, s.writes_completed, s.row_hits,
                           s.row_misses, s.activates, s.precharges,
                           s.refreshes, s.write_forwards,
                           s.data_bus_busy_cycles, s.total_read_latency,
                           ctl.pending());
  };
  const auto queued_writes = [&] {
    return c->stats().writes_enqueued - c->stats().writes_completed;
  };
  std::uint64_t max_writes = 0, min_writes_after_max = ~std::uint64_t{0};
  Cycle cyc = 0;
  for (; cyc < 30000; ++cyc) {
    if (pc.restore_at != 0 && cyc == pc.restore_at) {
      serial::Sink sink;
      c->save(sink);
      const std::vector<std::uint8_t> image = sink.take();
      std::unique_ptr<Controller> fresh = make();
      serial::Source src(image);
      fresh->load(src);
      twin = std::move(c);
      c = std::move(fresh);
    }
    const bool flood = pc.write_bursts && cyc % 5000 < 1500;
    const double rate = pc.write_bursts ? (flood ? 0.9 : 0.02) : pc.rate;
    const double wfrac = flood ? 0.95 : pc.write_frac;
    if (rng.chance(rate)) {
      const Addr a = line_base(rng.next() % g.capacity_bytes());
      const bool w = rng.chance(wfrac);
      if ((w && c->can_accept_write()) || (!w && c->can_accept_read())) {
        c->enqueue(a, w, ++tag, cyc);
        if (twin) twin->enqueue(a, w, tag, cyc);
      }
      c->completions().clear();  // enqueue may forward/merge-complete
      if (twin) twin->completions().clear();
    }
    const Cycle next_event = c->next_event_cycle(cyc);
    const auto before = snapshot(*c);
    c->tick(cyc);
    if (next_event > cyc) {
      EXPECT_EQ(before, snapshot(*c)) << "state changed at " << cyc
                                      << " despite next event " << next_event;
      EXPECT_TRUE(c->completions().empty());
    }
    if (twin) {
      twin->tick(cyc);
      ASSERT_EQ(snapshot(*twin), snapshot(*c)) << "restored controller "
                                                  "diverged at " << cyc;
      ASSERT_EQ(twin->completions().size(), c->completions().size());
      for (std::size_t i = 0; i < c->completions().size(); ++i) {
        EXPECT_EQ(twin->completions()[i].tag, c->completions()[i].tag);
        EXPECT_EQ(twin->completions()[i].finish, c->completions()[i].finish);
      }
      twin->completions().clear();
    }
    c->completions().clear();
    max_writes = std::max(max_writes, queued_writes());
    if (max_writes >= 48)
      min_writes_after_max = std::min(min_writes_after_max, queued_writes());
  }
  if (pc.write_bursts) {
    // The stream must cross both drain watermarks (3/4 and 1/4 of 64).
    EXPECT_GE(max_writes, 48u);
    EXPECT_LE(min_writes_after_max, 16u);
  }
  if (pc.power.throttle) {
    EXPECT_GT(c->power_report(cyc).throttled_windows, 0u)
        << "the throttle never engaged";
  }
}

TEST(Controller, NextEventCycleNeverMissesAStateChange) {
  PropertyCase frfcfs{"frfcfs"};
  PropertyCase fcfs{"fcfs"};
  fcfs.policy = SchedulingPolicy::kFcfs;
  fcfs.rate = 0.1;
  PropertyCase bursts{"write_bursts"};
  bursts.write_bursts = true;
  PropertyCase ewcrc{"ewcrc"};
  ewcrc.timings = Timings::ddr4_3200().with_ewcrc_burst();
  ewcrc.rate = 0.1;
  ewcrc.write_frac = 0.5;
  PropertyCase throttled{"throttled"};
  throttled.power = throttling_power();
  throttled.rate = 0.3;
  PropertyCase restored{"restored"};
  restored.rate = 0.1;
  restored.restore_at = 15000;
  PropertyCase restored_throttled = throttled;
  restored_throttled.name = "restored_throttled";
  restored_throttled.restore_at = 12345;
  for (const PropertyCase& pc :
       {frfcfs, fcfs, bursts, ewcrc, throttled, restored, restored_throttled})
    check_next_event_property(pc);
}

TEST(Controller, RefreshesHappenAtTrefiRate) {
  Harness h;
  const Cycle horizon = static_cast<Cycle>(h.t.tREFI) * 10;
  for (Cycle cyc = 0; cyc < horizon; ++cyc) {
    h.c.tick(cyc);
    h.c.completions().clear();
  }
  // ~10 refreshes per rank expected (staggered start).
  EXPECT_GE(h.c.stats().refreshes, 8u * h.g.ranks);
  EXPECT_LE(h.c.stats().refreshes, 12u * h.g.ranks);
}

TEST(Controller, RowHitRateHighForSequentialStream) {
  Harness h;
  std::uint64_t tag = 0;
  Cycle cyc = 0;
  // Stream through one row: 128 sequential lines.
  for (unsigned i = 0; i < 128; ++i) {
    while (!h.c.can_accept_read()) {
      h.c.tick(cyc);
      h.c.completions().clear();
      ++cyc;
    }
    h.c.enqueue(i * 64, false, ++tag, cyc);
  }
  h.now = cyc;
  h.run_until_drained();
  EXPECT_GT(h.c.stats().row_hit_rate(), 0.9);
}

TEST(Controller, RandomStreamHasLowerRowHitRate) {
  Harness h;
  Xoshiro256 rng(13);
  std::uint64_t tag = 0;
  Cycle cyc = 0;
  for (unsigned i = 0; i < 512; ++i) {
    while (!h.c.can_accept_read()) {
      h.c.tick(cyc);
      h.c.completions().clear();
      ++cyc;
    }
    h.c.enqueue(line_base(rng.next() % h.g.capacity_bytes()), false, ++tag,
                cyc);
  }
  h.now = cyc;
  h.run_until_drained();
  EXPECT_LT(h.c.stats().row_hit_rate(), 0.5);
}

TEST(Controller, QueueFullRejects) {
  Harness h;
  unsigned accepted = 0;
  for (unsigned i = 0; i < 200; ++i)
    accepted += h.c.enqueue(i * 64 * 131, false, i, 0);  // distinct rows
  EXPECT_EQ(accepted, 64u);  // Table I read queue size
}

TEST(Controller, LongerWriteBurstIncreasesBusBusy) {
  // The eWCRC cost: same writes, BL10 occupies 25% more bus cycles.
  auto run_writes = [](const Timings& t) {
    Geometry g = small_geometry();
    Controller c(g, t);
    std::uint64_t tag = 0;
    Cycle cyc = 0;
    for (unsigned i = 0; i < 256; ++i) {
      while (!c.can_accept_write()) {
        c.tick(cyc);
        c.completions().clear();
        ++cyc;
      }
      c.enqueue(i * 64 * 257, true, ++tag, cyc);
    }
    while (c.pending() > 0 && cyc < 1000000) {
      c.tick(cyc);
      c.completions().clear();
      ++cyc;
    }
    return c.stats().data_bus_busy_cycles;
  };
  const auto bl8 = run_writes(Timings::ddr4_3200());
  const auto bl10 = run_writes(Timings::ddr4_3200().with_ewcrc_burst());
  EXPECT_EQ(bl10, bl8 / 4 * 5);  // 4 -> 5 cycles per write burst
}

// Randomized controller stream: each cycle enqueues up to `burst` random
// requests (respecting backpressure), ticks once, and folds every
// completion in drain order into an FNV-1a hash; after `cycles` the queues
// drain. The final stats and the drain time (which depends on
// backpressure) are folded in too, so any reordering, timing drift, or
// backpressure change perturbs the hash.
struct StreamCfg {
  const char* name;
  std::uint64_t seed;
  SchedulingPolicy policy;
  unsigned space_bits;   ///< address space spans 1<<bits lines
  unsigned write_pct;    ///< % of requests that are writes
  unsigned burst;        ///< max enqueue attempts per cycle
  unsigned cycles;       ///< driven cycles before the drain phase
  std::uint64_t golden;  ///< expected hash
  Timings timings = Timings::ddr4_3200();
  PowerConfig power = {};
};

struct StreamRun {
  std::uint64_t hash;
  std::size_t pending;
  std::uint64_t throttled_windows;
};

StreamRun drive_stream(const StreamCfg& cfg, CommandObserver* observer) {
  struct Lcg {
    std::uint64_t s;
    std::uint64_t next() {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return s >> 11;
    }
  };
  Geometry g;  // default (full Table I) geometry, as captured
  Controller ctrl(g, cfg.timings, 64, 64, cfg.policy, cfg.power);
  ctrl.set_command_observer(observer);
  Lcg rng{cfg.seed};
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  std::uint64_t tag = 0;
  const std::uint64_t space = (1ull << cfg.space_bits) * 64ull;
  Cycle now = 0;
  const auto drive = [&](bool inject) {
    if (inject) {
      const unsigned n = static_cast<unsigned>(rng.next() % (cfg.burst + 1));
      for (unsigned i = 0; i < n; ++i) {
        const bool is_write = rng.next() % 100 < cfg.write_pct;
        const Addr addr = (rng.next() % space) & ~Addr{63};
        if (is_write ? ctrl.can_accept_write() : ctrl.can_accept_read())
          ctrl.enqueue(addr, is_write, tag++, now);
      }
    }
    ctrl.tick(now);
    for (const auto& done : ctrl.completions()) {
      mix(done.tag);
      mix(done.addr);
      mix(done.is_write ? 1 : 0);
      mix(done.arrival);
      mix(done.finish);
    }
    ctrl.completions().clear();
    ++now;
  };
  for (Cycle i = 0; i < cfg.cycles; ++i) drive(true);
  while (ctrl.pending() > 0 && now < cfg.cycles + 200000) drive(false);
  std::apply([&](const auto&... v) { (mix(v), ...); },
             ControllerStats::fields(ctrl.stats()));
  mix(now);
  return {h, ctrl.pending(), ctrl.power_report(now).throttled_windows};
}

// Property + regression: the per-bank request queues must preserve exact
// FR-FCFS semantics — scheduling order, arrival-order (seq) tie-breaking,
// write merging/forwarding, and can_accept_read/write backpressure —
// under randomized address streams, pinned to hashes captured at the PR 3
// commit, whose controller still scanned global arrival-ordered deques.
// Every command must also meet the DDR4 timing rules.
TEST(Controller, PerBankQueuesMatchPr3GoldenStreams) {
  const std::vector<StreamCfg> streams = {
      {"frfcfs_mixed", 1, SchedulingPolicy::kFrFcfs, 14, 30, 2, 30000,
       0xb33ca9850041babaull},
      {"frfcfs_hot", 2, SchedulingPolicy::kFrFcfs, 6, 30, 3, 30000,
       0x5359aa359ad4651bull},
      {"frfcfs_writeheavy", 3, SchedulingPolicy::kFrFcfs, 12, 70, 3, 30000,
       0x1f6fd8ad5d0b7033ull},
      {"frfcfs_sparse", 4, SchedulingPolicy::kFrFcfs, 20, 20, 1, 30000,
       0x5b10ffc69c3d3518ull},
      {"fcfs_mixed", 5, SchedulingPolicy::kFcfs, 14, 30, 2, 30000,
       0xa9b94dacf4f85fc7ull},
      {"fcfs_hot", 6, SchedulingPolicy::kFcfs, 6, 50, 3, 30000,
       0x1cbd3468f788fdebull},
  };
  for (const StreamCfg& cfg : streams) {
    SCOPED_TRACE(cfg.name);
    TimingOracle oracle(Geometry{}, cfg.timings);
    const StreamRun run = drive_stream(cfg, &oracle);
    EXPECT_EQ(run.hash, cfg.golden) << "per-bank queues diverged from the "
                                       "PR 3 global-deque controller";
    EXPECT_EQ(run.pending, 0u) << "stream failed to drain";
    EXPECT_EQ(oracle.violations, 0u) << describe(oracle);
    EXPECT_GT(oracle.commands, 1000u);
  }
}

// The eWCRC write burst (BL10) and the thermal throttle reshape the
// command stream; both must stay legal and reproduce the hashes captured
// from the scheduler that scanned per-bank deques.
TEST(Controller, EwcrcAndThrottledStreamsMeetJedecTimings) {
  StreamCfg ewcrc{"frfcfs_ewcrc", 7, SchedulingPolicy::kFrFcfs, 14, 50, 2,
                  30000, 0x3042f49ce637eb6full};
  ewcrc.timings = Timings::ddr4_3200().with_ewcrc_burst();
  StreamCfg throttled{"frfcfs_throttled", 8, SchedulingPolicy::kFrFcfs, 12,
                      40, 3, 30000, 0x63c4689d4baf6680ull};
  throttled.power = throttling_power();
  for (const StreamCfg& cfg : {ewcrc, throttled}) {
    SCOPED_TRACE(cfg.name);
    TimingOracle oracle(Geometry{}, cfg.timings);
    const StreamRun run = drive_stream(cfg, &oracle);
    EXPECT_EQ(run.hash, cfg.golden);
    EXPECT_EQ(run.pending, 0u) << "stream failed to drain";
    EXPECT_EQ(oracle.violations, 0u) << describe(oracle);
    EXPECT_GT(oracle.commands, 1000u);
    if (cfg.power.throttle) {
      EXPECT_GT(run.throttled_windows, 0u);
    }
  }
}

// The oracle is not vacuous: tightening its own tRCD or tFAW by a cycle
// or two, against the unchanged controller, must flag violations.
TEST(Controller, TimingOracleFlagsTightenedTimings) {
  const StreamCfg cfg{"frfcfs_mixed", 1, SchedulingPolicy::kFrFcfs, 14, 30,
                      2, 30000, 0};
  Timings rcd = cfg.timings;
  rcd.tRCD += 1;
  Timings faw = cfg.timings;
  faw.tFAW += 2;
  for (const Timings& t : {rcd, faw}) {
    TimingOracle oracle(Geometry{}, t);
    drive_stream(cfg, &oracle);
    EXPECT_GT(oracle.violations, 0u);
  }
}

// ---------------------------------------------------------------- system

TEST(DramSystem, ClockDomainRatioExact) {
  // 3200MHz core, 1600MHz memory: exactly 1 memory tick per 2 core ticks.
  DramSystem sys(small_geometry(), Timings::ddr4_3200(), 3200.0);
  for (int i = 0; i < 1000; ++i) sys.tick_core_cycle();
  EXPECT_EQ(sys.memory_cycle(), 500u);
  // 1200MHz memory: 3 per 8.
  DramSystem sys2(small_geometry(), Timings::ddr4_2400(), 3200.0);
  for (int i = 0; i < 8000; ++i) sys2.tick_core_cycle();
  EXPECT_EQ(sys2.memory_cycle(), 3000u);
}

TEST(DramSystem, CompletionsArriveInCoreCycles) {
  DramSystem sys(small_geometry(), Timings::ddr4_3200(), 3200.0);
  ASSERT_TRUE(sys.enqueue(0x1000, false, 77));
  std::vector<Completion> got;
  for (int i = 0; i < 10000 && got.empty(); ++i) {
    sys.tick_core_cycle();
    auto v = sys.drain_completions();
    got.insert(got.end(), v.begin(), v.end());
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].tag, 77u);
  // Roughly 2x the memory-cycle latency in core cycles.
  EXPECT_GT(got[0].finish, 2u * (22 + 22));
  EXPECT_LT(got[0].finish, 400u);
}

}  // namespace
}  // namespace secddr::dram
