#include "fuzz/executor.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/serial.h"
#include "fuzz/injector.h"
#include "secmem/params.h"
#include "sim/system.h"

namespace secddr::fuzz {

namespace {

/// FNV-1a 64-bit: the coverage signature accumulator.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

/// log2-style bucket: collapses raw counter values so the signature
/// reflects *which regime* a counter landed in, not its exact value —
/// cheap coverage that still separates "no alerts" / "one alert" /
/// "alert storm".
std::uint64_t bucket(std::uint64_t v) {
  if (v < 4) return v;  // 0..3 exact
  unsigned b = 2;
  while ((std::uint64_t{1} << (b + 1)) <= v) ++b;
  return 2 + b;  // 4..7 -> 4, 8..15 -> 5, ...
}

/// splitmix64: deterministic per-(address, salt) write patterns.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

CacheLine pattern_line(Addr addr, std::uint32_t salt) {
  CacheLine l;
  for (unsigned w = 0; w < kLineSize / 8; ++w)
    store_le64(l.bytes.data() + 8 * w,
               mix64(addr * 0x10001 + salt * 0x100000007ull + w));
  return l;
}

sim::SystemConfig timing_config(const ExecutorOptions& opts) {
  sim::SystemConfig cfg;
  cfg.mem.cores = 2;
  cfg.geometry.channels = 2;
  cfg.geometry.ranks = 1;
  cfg.geometry.bank_groups = 2;
  cfg.geometry.banks_per_group = 2;
  cfg.geometry.rows_per_bank = 512;
  cfg.geometry.columns_per_row = 32;
  cfg.data_bytes = 4ull << 20;
  cfg.security = secmem::SecurityParams::secddr_xts();
  cfg.event_driven = opts.event_driven;
  return cfg;
}

// ---- Master-snapshot wire form (sorted keys => process-stable bytes) ----

void save_u64_map(serial::Sink& s,
                  const std::unordered_map<std::uint64_t, std::uint64_t>& m) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kv(m.begin(), m.end());
  std::sort(kv.begin(), kv.end());
  s.u64(kv.size());
  for (const auto& [k, v] : kv) {
    s.u64(k);
    s.u64(v);
  }
}

std::unordered_map<std::uint64_t, std::uint64_t> load_u64_map(
    serial::Source& src) {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  const std::size_t n = src.count(16);
  m.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = src.u64();
    m[k] = src.u64();
  }
  return m;
}

void save_line_map(serial::Sink& s,
                   const std::unordered_map<std::uint64_t, CacheLine>& m) {
  std::vector<std::uint64_t> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  s.u64(keys.size());
  for (const std::uint64_t k : keys) {
    s.u64(k);
    const CacheLine& l = m.at(k);
    s.bytes(l.bytes.data(), l.bytes.size());
  }
}

std::unordered_map<std::uint64_t, CacheLine> load_line_map(
    serial::Source& src) {
  std::unordered_map<std::uint64_t, CacheLine> m;
  const std::size_t n = src.count(8 + kLineSize);
  m.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = src.u64();
    CacheLine l;
    src.bytes(l.bytes.data(), l.bytes.size());
    m[k] = l;
  }
  return m;
}

}  // namespace

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kHarmless:
      return "harmless";
    case Verdict::kDetected:
      return "detected";
    case Verdict::kCorrected:
      return "corrected";
    case Verdict::kAccounted:
      return "accounted";
    case Verdict::kEscape:
      return "escape";
  }
  return "?";
}

struct Executor::Master {
  std::unique_ptr<core::SecureMemorySession> session;
  core::SecureMemorySession::Snapshot pristine;
  std::uint64_t pristine_ecc = 0;
};

Executor::Executor(const ExecutorOptions& opts) : opts_(opts) {}
Executor::~Executor() = default;

const dram::Geometry& Executor::functional_geometry() {
  static const dram::Geometry g = make_profile_config(0).dimm.geometry;
  return g;
}

std::uint64_t Executor::functional_capacity() {
  return functional_geometry().capacity_bytes();
}

Executor::Master& Executor::master(unsigned profile_id) {
  auto& slot = masters_[profile_id % kProfileCount];
  if (!slot) {
    slot = std::make_unique<Master>();
    std::string failure;
    slot->session =
        core::SecureMemorySession::create(make_profile_config(profile_id),
                                          &failure);
    assert(slot->session && "fuzz profile attestation must succeed");
    slot->pristine = slot->session->snapshot();
    slot->pristine_ecc = slot->session->dimm().ecc_corrections();
  }
  return *slot;
}

std::vector<std::uint8_t> Executor::master_snapshot(unsigned profile) {
  Master& m = master(profile);
  const core::SecureMemorySession::Snapshot& snap = m.pristine;
  serial::Sink s;
  s.u64(snap.dimm.data.size());
  for (const auto& rank : snap.dimm.data) save_line_map(s, rank);
  s.u64(snap.dimm.macs.size());
  for (const auto& rank : snap.dimm.macs) save_u64_map(s, rank);
  serial::put(s, snap.dimm.counters);
  serial::put(s, snap.dimm.cmd_counters);
  serial::put(s, snap.dimm.open_rows);
  s.u64(snap.dimm.ecc_corrections);
  serial::put(s, snap.controller.counters);
  serial::put(s, snap.controller.cmd_counters);
  serial::put(s, snap.controller.open_row_mirror);
  save_u64_map(s, snap.controller.line_counters);
  serial::put(s, snap.controller.stats);
  s.u64(m.pristine_ecc);
  return s.take();
}

void Executor::set_master_snapshot(unsigned profile, const std::uint8_t* data,
                                   std::size_t n) {
  // Attest (or reuse) the session first: the snapshot carries only the
  // mutable channel state, never the fused keys.
  Master& m = master(profile);
  const std::size_t ranks = m.pristine.dimm.data.size();

  serial::Source src(data, n);
  core::SecureMemorySession::Snapshot snap;
  const std::size_t data_ranks = src.count(8);
  for (std::size_t i = 0; i < data_ranks; ++i)
    snap.dimm.data.push_back(load_line_map(src));
  const std::size_t mac_ranks = src.count(8);
  for (std::size_t i = 0; i < mac_ranks; ++i)
    snap.dimm.macs.push_back(load_u64_map(src));
  serial::get(src, snap.dimm.counters);
  serial::get(src, snap.dimm.cmd_counters);
  serial::get(src, snap.dimm.open_rows);
  snap.dimm.ecc_corrections = src.u64();
  serial::get(src, snap.controller.counters);
  serial::get(src, snap.controller.cmd_counters);
  serial::get(src, snap.controller.open_row_mirror);
  snap.controller.line_counters = load_u64_map(src);
  serial::get(src, snap.controller.stats);
  const std::uint64_t pristine_ecc = src.u64();
  if (!src.done())
    throw std::runtime_error("master snapshot: trailing bytes");
  if (snap.dimm.data.size() != ranks || snap.dimm.macs.size() != ranks ||
      snap.dimm.counters.size() != ranks ||
      snap.dimm.cmd_counters.size() != ranks ||
      snap.dimm.open_rows.size() != m.pristine.dimm.open_rows.size() ||
      snap.controller.counters.size() !=
          m.pristine.controller.counters.size() ||
      snap.controller.cmd_counters.size() !=
          m.pristine.controller.cmd_counters.size() ||
      snap.controller.open_row_mirror.size() !=
          m.pristine.controller.open_row_mirror.size())
    throw std::runtime_error(
        "master snapshot: geometry disagrees with the attested session");
  m.pristine = std::move(snap);
  m.pristine_ecc = pristine_ecc;
}

Outcome Executor::run(const FuzzInput& in) {
  Outcome out;
  Master& m = master(in.profile);
  core::SecureMemorySession& s = *m.session;
  s.restore(m.pristine);

  const Addr cap = functional_capacity();
  const auto map_addr = [&](Addr a) { return line_base(a) % cap; };

  // Setup phase (clean channel): pre-write every line the trace touches
  // so each probe read has a controller-believed value to compare with.
  std::vector<Addr> touched;
  {
    std::vector<bool> seen(cap / kLineSize, false);
    for (const sim::TraceRecord& r : in.ops) {
      const Addr a = map_addr(r.addr);
      if (!seen[a / kLineSize]) {
        seen[a / kLineSize] = true;
        touched.push_back(a);
      }
    }
  }
  std::unordered_map<Addr, CacheLine> believed;
  for (const Addr a : touched) {
    const CacheLine v = pattern_line(a, 0);
    const core::Violation w = s.write(a, v);
    assert(w == core::Violation::kNone && "setup runs on a clean channel");
    (void)w;
    believed[a] = v;
  }

  const core::ControllerStats before = s.stats();

  // Adversarial phase: injector armed at both attacker positions for the
  // mutated ops AND the probe sweep (faults may target probe traffic).
  FaultInjector inj(in.plan, s.dimm());
  s.set_bus_interposer(&inj);
  s.set_on_dimm_interposer(&inj);

  Fnv sig;
  sig.mix(0x5ecddful);
  sig.mix(in.profile);

  std::uint32_t op_index = 0;
  // A mismatch is *silent* only when no controller-observed violation
  // preceded it: a real controller halts the channel at its first
  // violation, so stale data served after one is unreachable. Device
  // alerts on attacker-injected commands do not count — that wire is
  // under attacker control and the controller never saw them.
  std::uint32_t ctrl_violations = 0;
  const auto note_mismatch = [&](Addr a, std::uint32_t idx) {
    if (ctrl_violations == 0) ++out.silent_mismatches;
    if (out.mismatches++ == 0) {
      out.note = "ok-read of 0x" + std::to_string(a) + " at op " +
                 std::to_string(idx) + " returned non-believed data";
    }
    sig.mix(0xBAD0000ull + idx);
  };
  const auto do_read = [&](Addr a) {
    const auto r = s.read(a);
    if (!r.ok()) {
      ++out.violations;
      ++ctrl_violations;
      sig.mix((std::uint64_t{op_index} << 8) |
              static_cast<std::uint64_t>(r.violation));
    } else if (const auto it = believed.find(a);
               it != believed.end() && !(r.data == it->second)) {
      note_mismatch(a, op_index);
    }
    ++op_index;
  };
  for (const sim::TraceRecord& r : in.ops) {
    const Addr a = map_addr(r.addr);
    if (r.is_write) {
      const CacheLine v = pattern_line(a, op_index + 1);
      const core::Violation w = s.write(a, v);
      if (w == core::Violation::kNone)
        believed[a] = v;  // the controller believes this write landed
      else {
        ++out.violations;
        ++ctrl_violations;
        sig.mix((std::uint64_t{op_index} << 8) | 0x80u |
                static_cast<std::uint64_t>(w));
      }
      ++op_index;
    } else {
      do_read(a);
    }
  }
  // Probe phase: read back every touched line.
  for (const Addr a : touched) do_read(a);

  s.set_bus_interposer(nullptr);
  s.set_on_dimm_interposer(nullptr);

  out.violations += inj.injected_alerts();
  out.faults_fired = inj.fired();

  // Engine-event / state-transition coverage: controller stat deltas,
  // device ECC corrections, and the per-rank counter desync pattern.
  const core::ControllerStats after = s.stats();
  sig.mix(bucket(after.reads - before.reads));
  sig.mix(bucket(after.writes - before.writes));
  sig.mix(bucket(after.activates - before.activates));
  sig.mix(bucket(after.mac_mismatches - before.mac_mismatches));
  sig.mix(bucket(after.write_alerts - before.write_alerts));
  sig.mix(bucket(after.dropped_responses - before.dropped_responses));
  const std::uint64_t ecc_delta =
      s.dimm().ecc_corrections() - m.pristine_ecc;
  sig.mix(bucket(ecc_delta));
  const auto& g = functional_geometry();
  for (unsigned r = 0; r < g.ranks; ++r) {
    const std::uint64_t cc = s.controller().transaction_counter(r);
    const std::uint64_t dc = s.dimm().transaction_counter(r);
    sig.mix(cc == dc ? 0 : (cc > dc ? 0x100 + bucket(cc - dc)
                                    : 0x200 + bucket(dc - cc)));
  }
  sig.mix(bucket(inj.injected_alerts()));
  sig.mix(out.faults_fired);
  sig.mix(out.mismatches);
  sig.mix(out.silent_mismatches);

  // Optional timing leg: replay the ops through a tiny two-channel
  // system and fold the per-channel engine/DRAM counters in. RunResult
  // is bit-identical across loop modes, so the signature cannot depend
  // on the mode.
  if (opts_.timing_leg && !in.ops.empty()) {
    const sim::SystemConfig cfg = timing_config(opts_);
    std::vector<std::vector<sim::TraceRecord>> per_core(cfg.mem.cores);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      sim::TraceRecord r = in.ops[i];
      r.addr = line_base(r.addr) % cfg.data_bytes;
      per_core[i % cfg.mem.cores].push_back(r);
    }
    std::vector<sim::VectorTrace> traces;
    traces.reserve(cfg.mem.cores);
    for (auto& v : per_core) traces.emplace_back(std::move(v));
    std::vector<sim::TraceSource*> ptrs;
    for (auto& t : traces) ptrs.push_back(&t);
    sim::System sys(cfg, ptrs);
    const sim::RunResult res =
        sys.run(/*instructions_per_core=*/1ull << 40, /*max_cycles=*/8'000'000);
    out.timing_ok = !res.hit_cycle_limit;
    sig.mix(bucket(res.cycles));
    for (const auto& e : res.engine_per_channel) {
      sig.mix(bucket(e.data_reads));
      sig.mix(bucket(e.data_writes));
      sig.mix(bucket(e.counter_fetches));
      sig.mix(bucket(e.mac_line_fetches));
      sig.mix(bucket(e.tree_node_fetches));
      sig.mix(bucket(e.meta_writebacks));
    }
    for (const auto& d : res.dram_per_channel) {
      sig.mix(bucket(d.reads_completed));
      sig.mix(bucket(d.writes_completed));
      sig.mix(bucket(d.row_hits));
      sig.mix(bucket(d.row_misses));
      sig.mix(bucket(d.activates));
      sig.mix(bucket(d.precharges));
      sig.mix(bucket(d.refreshes));
      sig.mix(bucket(d.write_forwards));
    }
  }

  // Verdict. Silent mismatches dominate: data accepted as valid with the
  // channel never having been flagged is THE failure the campaign hunts.
  // A mismatch after a controller-observed violation is unreachable in a
  // halt-on-violation deployment, so it classifies as detected.
  if (out.silent_mismatches > 0) {
    bool accounted = false;
    for (const FaultOp& op : in.plan)
      if (inj.fired_class(op.cls) && accounted_escape(in.profile, op.cls))
        accounted = true;
    out.verdict = accounted ? Verdict::kAccounted : Verdict::kEscape;
  } else if (out.violations > 0) {
    out.verdict = Verdict::kDetected;
  } else if (ecc_delta > 0) {
    out.verdict = Verdict::kCorrected;
  } else {
    out.verdict = Verdict::kHarmless;
  }
  sig.mix(static_cast<std::uint64_t>(out.verdict));
  out.signature = sig.h;
  return out;
}

}  // namespace secddr::fuzz
