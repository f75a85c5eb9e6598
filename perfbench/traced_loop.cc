#include "traced_loop.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "sim/backend.h"
#include "sim/core.h"
#include "sim/memory_system.h"

namespace perfbench {

using namespace secddr;
using Clock = std::chrono::steady_clock;

namespace {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// The cores' MemoryPort: forwards to the MemorySystem and times each
/// call, so core ticks can subtract the issue time they contain.
class TimedPort final : public sim::MemoryPort {
 public:
  explicit TimedPort(sim::MemorySystem& memory) : memory_(memory) {}

  bool issue_load(unsigned core_id, Addr addr, bool* done) override {
    const auto t0 = Clock::now();
    const bool ok = memory_.issue_load(core_id, addr, done);
    span.ns += ns_between(t0, Clock::now());
    ++span.calls;
    return ok;
  }
  bool issue_store(unsigned core_id, Addr addr) override {
    const auto t0 = Clock::now();
    const bool ok = memory_.issue_store(core_id, addr);
    span.ns += ns_between(t0, Clock::now());
    ++span.calls;
    return ok;
  }

  Span span;

 private:
  sim::MemorySystem& memory_;
};

}  // namespace

LayerProfile& LayerProfile::operator+=(const LayerProfile& o) {
  core_tick += o.core_tick;
  issue += o.issue;
  mem_tick += o.mem_tick;
  veto += o.veto;
  horizon += o.horizon;
  epoch += o.epoch;
  vetoes += o.vetoes;
  window_cycles += o.window_cycles;
  wall_ns += o.wall_ns;
  instructions += o.instructions;
  llc_demand_misses += o.llc_demand_misses;
  dram_commands += o.dram_commands;
  scan_entries += o.scan_entries;
  dram += o.dram;
  engine += o.engine;
  meta_accesses += o.meta_accesses;
  meta_misses += o.meta_misses;
  return *this;
}

sim::RunResult run_traced(const sim::SystemConfig& cfg,
                          const std::vector<sim::TraceSource*>& traces,
                          std::uint64_t instructions, Cycle max_cycles,
                          std::uint64_t warmup, LayerProfile* prof) {
  if (!cfg.event_driven || traces.size() != cfg.mem.cores)
    throw std::invalid_argument(
        "run_traced replicates the event-driven loop with one trace per core");

  // Same construction as System::System.
  sim::BackendConfig bc;
  bc.geometry = cfg.geometry;
  bc.timings = cfg.timings;
  bc.scheduling = cfg.scheduling;
  bc.security = cfg.security;
  bc.core_mhz = cfg.core_mhz;
  bc.data_bytes = cfg.data_bytes;
  bc.event_driven = cfg.event_driven;
  bc.mem_threads = cfg.mem_threads;
  bc.power = cfg.power;
  sim::MemoryBackend backend(bc);
  sim::MemorySystem memory(cfg.mem, backend);
  TimedPort port(memory);
  std::vector<std::unique_ptr<sim::Core>> cores;
  for (unsigned c = 0; c < cfg.mem.cores; ++c)
    cores.push_back(std::make_unique<sim::Core>(c, cfg.core, *traces[c], port));

  LayerProfile p;
  // Model counts of the phase that just ended, read before the warmup
  // reset clears them.
  const auto collect_counts = [&] {
    for (const auto& core : cores) p.instructions += core->stats().instructions;
    p.llc_demand_misses += memory.stats().llc_demand_misses;
    p.dram += backend.dram_stats();
    p.engine += backend.engine_stats();
    for (unsigned ch = 0; ch < backend.channels(); ++ch) {
      p.dram_commands += backend.dram(ch).scan_stats().commands_issued;
      p.scan_entries += backend.dram(ch).scan_stats().entries_visited;
      p.meta_accesses += backend.engine(ch).metadata_cache().accesses();
      p.meta_misses += backend.engine(ch).metadata_cache().misses();
    }
  };

  const auto t_start = Clock::now();
  // System::begin.
  unsigned phase = warmup > 0 ? 0 : 1;
  for (auto& core : cores)
    core->set_instruction_budget(phase == 0 ? warmup : warmup + instructions);
  Cycle cycle = 0;
  unsigned deny_streak = 0;
  unsigned attempt_pause = 0;
  bool hit_limit = false;

  // System::finish_phase: true while the run continues.
  const auto finish_phase = [&](bool at_limit) {
    hit_limit = hit_limit || at_limit;
    collect_counts();
    if (phase != 0) return false;
    for (auto& core : cores) core->reset_stats();
    memory.reset_stats();
    backend.reset_stats();
    for (auto& core : cores) core->set_instruction_budget(warmup + instructions);
    phase = 1;
    cycle = 0;
    deny_streak = 0;
    attempt_pause = 0;
    return true;
  };

  // System::step with an unlimited slice budget.
  for (;;) {
    if (cycle >= max_cycles) {
      if (finish_phase(true)) continue;
      break;
    }
    bool all_done = true;
    for (auto& core : cores) {
      const std::int64_t issue_before = port.span.ns;
      const auto t0 = Clock::now();
      core->tick();
      p.core_tick.ns += ns_between(t0, Clock::now()) - (port.span.ns - issue_before);
      ++p.core_tick.calls;
      all_done = all_done && core->finished();
    }
    {
      const auto t0 = Clock::now();
      memory.tick();
      p.mem_tick.ns += ns_between(t0, Clock::now());
      ++p.mem_tick.calls;
    }
    if (all_done) {
      if (finish_phase(false)) continue;
      break;
    }
    ++cycle;
    if (attempt_pause > 0) {
      --attempt_pause;
      continue;
    }

    Cycle skip = max_cycles - cycle;
    std::uint64_t blocked_cores = 0;
    {
      const auto t0 = Clock::now();
      for (auto& core : cores) {
        if (skip == 0) break;
        Addr blocked_addr;
        if (core->blocked_on_issue(&blocked_addr)) {
          if (!memory.issue_blocked_for(core->id(), blocked_addr)) {
            skip = 0;
            break;
          }
          ++blocked_cores;
          continue;
        }
        skip = std::min(skip, core->next_event_cycle(cycle - 1) - cycle);
      }
      p.veto.ns += ns_between(t0, Clock::now());
      ++p.veto.calls;
    }
    if (skip == 0) {
      ++p.vetoes;
      if (++deny_streak >= 16) {
        attempt_pause = 16;
        deny_streak = 0;
      }
      continue;
    }
    deny_streak = 0;
    {
      const auto t0 = Clock::now();
      skip = std::min(skip, memory.window_bound());
      p.horizon.ns += ns_between(t0, Clock::now());
      ++p.horizon.calls;
    }
    if (skip == 0) continue;
    {
      const auto t0 = Clock::now();
      for (auto& core : cores) core->advance_idle(skip);
      memory.account_blocked_retries(blocked_cores * skip);
      memory.advance_window(skip);
      p.epoch.ns += ns_between(t0, Clock::now());
      ++p.epoch.calls;
    }
    p.window_cycles += skip;
    cycle += skip;
  }

  // System::result.
  sim::RunResult r;
  r.cycles = cycle;
  r.hit_cycle_limit = hit_limit;
  std::uint64_t total_instr = 0;
  for (const auto& core : cores) {
    r.cores.push_back(core->stats());
    r.total_ipc += core->stats().ipc();
    total_instr += core->stats().instructions;
  }
  r.mem = memory.stats();
  r.engine = backend.engine_stats();
  r.dram = backend.dram_stats();
  r.engine_per_channel = backend.engine_stats_per_channel();
  r.dram_per_channel = backend.dram_stats_per_channel();
  r.power_per_channel = backend.power_reports();
  r.llc_mpki = total_instr ? 1000.0 *
                                 static_cast<double>(r.mem.llc_demand_misses) /
                                 static_cast<double>(total_instr)
                           : 0.0;
  r.metadata_accesses = backend.metadata_accesses();
  r.metadata_miss_rate = backend.metadata_miss_rate();
  p.issue = port.span;
  p.wall_ns = ns_between(t_start, Clock::now());
  *prof += p;
  return r;
}

}  // namespace perfbench
