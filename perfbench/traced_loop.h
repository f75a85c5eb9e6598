// Traced replica of sim::System's event-driven run loop.
//
// The replica builds the components System owns (MemoryBackend,
// MemorySystem, one Core per trace) from their public constructors and
// drives them with the calls System::step makes, in the same order,
// timing each call from the outside. Core issue calls are timed through a
// MemoryPort wrapper handed to each Core, so a core tick's own time
// excludes the cache hierarchy it calls into. The caller checks the
// replica's RunResult against System::run byte for byte; a replica that
// drifts from the loop it measures fails the benchmark instead of
// reporting a split of some other loop.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/controller.h"
#include "secmem/model.h"
#include "sim/system.h"

namespace perfbench {

/// Host time (nanoseconds) and call count of one span.
struct Span {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  double seconds() const { return static_cast<double>(ns) * 1e-9; }
  double ns_per_call() const {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  }
  Span& operator+=(const Span& o) {
    ns += o.ns;
    calls += o.calls;
    return *this;
  }
};

/// Per-layer host time of traced runs and the model counts each time is
/// divided by. Counts cover warmup and measured phases, like the times.
struct LayerProfile {
  Span core_tick;  ///< Core::tick minus its nested port calls
  Span issue;      ///< MemorySystem::issue_load / issue_store via the port
  Span mem_tick;   ///< MemorySystem::tick
  Span veto;       ///< per query: blocked_on_issue, issue_blocked_for and
                   ///< next_event_cycle over every core
  Span horizon;    ///< MemorySystem::window_bound
  Span epoch;      ///< advance_idle + account_blocked_retries + advance_window
  std::uint64_t vetoes = 0;         ///< veto queries that denied a window
  std::uint64_t window_cycles = 0;  ///< cycles covered by epoch windows
  std::int64_t wall_ns = 0;         ///< the whole traced loop

  std::uint64_t instructions = 0;
  std::uint64_t llc_demand_misses = 0;
  std::uint64_t dram_commands = 0;  ///< ScanStats::commands_issued
  std::uint64_t scan_entries = 0;   ///< ScanStats::entries_visited
  secddr::dram::ControllerStats dram;
  secddr::secmem::EngineStats engine;
  std::uint64_t meta_accesses = 0;
  std::uint64_t meta_misses = 0;

  /// Sum of every span except the loop's own bookkeeping.
  std::int64_t spans_ns() const {
    return core_tick.ns + issue.ns + mem_tick.ns + veto.ns + horizon.ns +
           epoch.ns;
  }
  LayerProfile& operator+=(const LayerProfile& o);
};

/// Runs what `System(cfg, traces).run(instructions, max_cycles, warmup)`
/// runs, in event-driven mode, timing every call into the components.
/// Adds this run's spans and counts to `*prof` and returns the RunResult
/// System::result() would assemble.
secddr::sim::RunResult run_traced(const secddr::sim::SystemConfig& cfg,
                                  const std::vector<secddr::sim::TraceSource*>& traces,
                                  std::uint64_t instructions,
                                  secddr::Cycle max_cycles,
                                  std::uint64_t warmup, LayerProfile* prof);

}  // namespace perfbench
