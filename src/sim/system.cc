#include "sim/system.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace secddr::sim {

System::System(const SystemConfig& config, std::vector<TraceSource*> traces)
    : config_(config) {
  assert(traces.size() == config.mem.cores);
  BackendConfig bc;
  bc.geometry = config.geometry;
  bc.timings = config.timings;
  bc.scheduling = config.scheduling;
  bc.security = config.security;
  bc.core_mhz = config.core_mhz;
  bc.data_bytes = config.data_bytes;
  bc.event_driven = config.event_driven;
  bc.power = config.power;
  backend_ = std::make_unique<MemoryBackend>(bc);
  memory_ = std::make_unique<MemorySystem>(config.mem, *backend_);
  cores_.reserve(traces.size());
  for (unsigned c = 0; c < config.mem.cores; ++c)
    cores_.push_back(
        std::make_unique<Core>(c, config.core, *traces[c], *memory_));
}

void System::begin(std::uint64_t instructions_per_core, Cycle max_cycles,
                   std::uint64_t warmup_instructions) {
  st_ = RunState{};
  st_.active = true;
  st_.instructions = instructions_per_core;
  st_.warmup = warmup_instructions;
  st_.max_cycles = max_cycles;
  st_.phase = warmup_instructions > 0 ? 0 : 1;
  const std::uint64_t budget =
      st_.phase == 0 ? warmup_instructions
                     : warmup_instructions + instructions_per_core;
  for (auto& core : cores_) core->set_instruction_budget(budget);
}

bool System::finish_phase(bool at_limit) {
  // hit_limit aggregates across phases: a warmup that ran into the limit
  // must be reported even when the (freshly counted) measured phase
  // finishes under it — otherwise the result silently covers fewer warmup
  // instructions than requested. Every channel is ticked on every memory
  // tick up to the limit cycle itself, so no completion can be stranded
  // in a non-ticked channel when the limit hits.
  st_.hit_limit = st_.hit_limit || at_limit;
  if (st_.phase == 0) {
    for (auto& core : cores_) core->reset_stats();
    memory_->reset_stats();
    backend_->reset_stats();
    for (auto& core : cores_)
      core->set_instruction_budget(st_.warmup + st_.instructions);
    st_.phase = 1;
    st_.cycle = 0;
    st_.deny_streak = 0;
    st_.attempt_pause = 0;
    return true;
  }
  st_.active = false;
  return false;
}

bool System::step(Cycle budget) {
  if (!st_.active) return false;
  const Cycle limit = st_.max_cycles;
  while (budget > 0) {
    if (st_.cycle >= limit) return finish_phase(true);
    bool all_done = true;
    for (auto& core : cores_) {
      core->tick();
      all_done = all_done && core->finished();
    }
    memory_->tick();
    --budget;
    // Boundary stop after a phase transition (even with budget left):
    // this is the exact post-warmup state a warm-start checkpoint wants.
    if (all_done) return finish_phase(false);
    ++st_.cycle;
    if (!config_.event_driven) continue;
    if (st_.attempt_pause > 0) {
      --st_.attempt_pause;
      continue;
    }

    // Epoch-decoupled fast path: find the span no core can act in,
    // clamp it to the memory system's safe horizon, and run the whole
    // window as one backend epoch. Core-side cycles are provable
    // no-ops and get replayed (advance_idle() / account_blocked_
    // retries() reproduce the cycle and load-stall counters, failing-
    // issue cache-stat bumps, bulk compute-batch retirement); memory-
    // side cycles are *executed*, each channel running to the horizon
    // on its local clock, with fills and completion flags drained at
    // the boundary — which window_bound() proves is where the serial
    // per-cycle loop would first have observed them. Results stay
    // bit-identical to the per-cycle loop.
    //
    // The core bound is checked first: under the epoch model the
    // memory side always grants a window of >= 1, so only a core veto
    // (someone acts next cycle) can deny — the opposite polarity of
    // the pre-epoch loop, where DRAM saturation denied the skip.
    Cycle skip = limit - st_.cycle;
    std::uint64_t blocked_cores = 0;
    for (auto& core : cores_) {
      if (skip == 0) break;
      Addr blocked_addr;
      if (core->blocked_on_issue(&blocked_addr)) {
        // Retrying an issue every cycle; skippable only if the retry
        // provably keeps failing until a memory event.
        if (!memory_->issue_blocked_for(core->id(), blocked_addr)) {
          skip = 0;
          break;
        }
        ++blocked_cores;
        continue;
      }
      skip = std::min(skip, core->next_event_cycle(st_.cycle - 1) - st_.cycle);
    }
    if (skip == 0) {
      // Saturation backoff: when the cores keep vetoing windows (someone
      // can act on the very next cycle), pause the window queries for a
      // while — attempting a window is optional, so this cannot change
      // results, it only sheds query overhead while nothing is batchable.
      if (++st_.deny_streak >= 16) {
        st_.attempt_pause = 16;
        st_.deny_streak = 0;
      }
      continue;
    }
    st_.deny_streak = 0;
    skip = std::min(skip, memory_->window_bound());
    // Slice clamp: never run past the budget. A shorter window is just a
    // different (still safe) epoch partition, so results are unchanged.
    skip = std::min(skip, budget);
    if (skip == 0) continue;  // the tick itself spent the last cycle
    for (auto& core : cores_) core->advance_idle(skip);
    memory_->account_blocked_retries(blocked_cores * skip);
    memory_->advance_window(skip);
    st_.cycle += skip;
    budget -= skip;
  }
  return true;
}

RunResult System::result() const {
  RunResult r;
  r.cycles = st_.cycle;
  r.hit_cycle_limit = st_.hit_limit;
  std::uint64_t total_instr = 0;
  for (const auto& core : cores_) {
    r.cores.push_back(core->stats());
    r.total_ipc += core->stats().ipc();
    total_instr += core->stats().instructions;
  }
  r.mem = memory_->stats();
  r.engine = backend_->engine_stats();
  r.dram = backend_->dram_stats();
  r.engine_per_channel = backend_->engine_stats_per_channel();
  r.dram_per_channel = backend_->dram_stats_per_channel();
  r.power_per_channel = backend_->power_reports();
  r.llc_mpki = total_instr ? 1000.0 *
                                 static_cast<double>(r.mem.llc_demand_misses) /
                                 static_cast<double>(total_instr)
                           : 0.0;
  r.metadata_accesses = backend_->metadata_accesses();
  r.metadata_miss_rate = backend_->metadata_miss_rate();
  return r;
}

RunResult System::run(std::uint64_t instructions_per_core, Cycle max_cycles,
                      std::uint64_t warmup_instructions) {
  begin(instructions_per_core, max_cycles, warmup_instructions);
  while (step(kNoEvent)) {
  }
  return result();
}

void System::save(serial::Sink& s) const {
  backend_->save(s);
  // Cores before the memory hierarchy: load() must rebuild the ROBs
  // before it can decode MSHR waiter tokens back into done-flag pointers.
  for (const auto& core : cores_) core->save(s);
  memory_->save(s, [this](bool* flag) -> std::uint64_t {
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      const std::int64_t idx = cores_[c]->done_flag_index(flag);
      if (idx >= 0)
        return (static_cast<std::uint64_t>(c) << 32) |
               static_cast<std::uint64_t>(idx);
    }
    throw std::runtime_error("completion flag points outside every ROB");
  });
  s.b(st_.active);
  s.u64(st_.instructions);
  s.u64(st_.warmup);
  s.u64(st_.max_cycles);
  s.u32(st_.phase);
  s.u64(st_.cycle);
  s.u32(st_.deny_streak);
  s.u32(st_.attempt_pause);
  s.b(st_.hit_limit);
}

void System::load(serial::Source& s) {
  backend_->load(s);
  for (auto& core : cores_) core->load(s);
  memory_->load(s, [this](std::uint64_t token) -> bool* {
    const std::size_t c = static_cast<std::size_t>(token >> 32);
    if (c >= cores_.size())
      throw std::runtime_error("completion-flag token names a bad core");
    return cores_[c]->done_flag_at(token & 0xFFFFFFFFull);
  });
  st_.active = s.b();
  st_.instructions = s.u64();
  st_.warmup = s.u64();
  st_.max_cycles = s.u64();
  st_.phase = s.u32();
  st_.cycle = s.u64();
  st_.deny_streak = s.u32();
  st_.attempt_pause = s.u32();
  st_.hit_limit = s.b();
}

std::uint64_t System::config_hash() const {
  serial::Sink s;
  serial::put(s, config_);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit
  for (const std::uint8_t b : s.data()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace secddr::sim
