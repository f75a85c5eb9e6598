// Top-level single-channel DRAM system: couples the address mapping and
// controller and owns the memory-clock domain.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/controller.h"

namespace secddr::dram {

/// A DRAM channel driven from a faster core clock. The caller ticks the
/// system once per *core* cycle; internally the memory clock advances at
/// `clock_mhz / core_mhz` of that rate using an exact rational accumulator.
class DramSystem {
 public:
  DramSystem(const Geometry& geometry, const Timings& timings,
             double core_clock_mhz,
             SchedulingPolicy policy = SchedulingPolicy::kFrFcfs,
             const PowerConfig& power = {});

  /// Enqueue a line transaction. Returns false when the queue is full.
  bool enqueue(Addr addr, bool is_write, std::uint64_t tag);

  /// Event-driven mode: tick_core_cycle() consults the controller's
  /// memoized next-event query and elides memory ticks that are provable
  /// no-ops (identical results, O(1) instead of a queue scan). Off by
  /// default so the plain path stays the bit-exact reference
  /// implementation the determinism tests compare against.
  void set_event_driven(bool on) { event_driven_ = on; }

  /// Advances one core cycle; may advance zero or more memory cycles.
  void tick_core_cycle();

  /// Number of upcoming core cycles guaranteed to be no-ops: every memory
  /// tick they trigger lies strictly before the controller's next event.
  /// Derived by inverting the rational clock accumulator, so it is exact
  /// for any core:memory ratio. kNoEvent when nothing is scheduled.
  Cycle idle_core_cycles() const;

  /// Fast-forwards `cycles` core cycles previously reported idle by
  /// idle_core_cycles(): advances both clock domains (and the
  /// accumulator) without running the controller's no-op ticks.
  void advance_idle_core_cycles(Cycle cycles);

  /// Completions observed since last drain, with finish times converted to
  /// core cycles.
  std::vector<Completion> drain_completions();
  /// Zero-copy variant: the completion buffer itself (core-cycle finish
  /// stamps); the caller iterates and then calls clear_completions(),
  /// which keeps the buffer's capacity (drain_completions() would free it
  /// every cycle).
  const std::vector<Completion>& pending_completions() const { return out_; }
  void clear_completions() { out_.clear(); }

  Cycle core_cycle() const { return core_cycle_; }
  Cycle memory_cycle() const { return mem_cycle_; }
  const ControllerStats& stats() const { return controller_.stats(); }
  const ScanStats& scan_stats() const { return controller_.scan_stats(); }
  /// Stats cut over after warmup. Power accounting first catches up to
  /// the current memory cycle so the cumulative energy totals start at
  /// the same window boundary in every loop mode (lazy event-driven
  /// processing would otherwise shift pre-warmup windows past the reset).
  void reset_stats() {
    controller_.catch_up_power(mem_cycle_);
    controller_.reset_stats();
  }
  /// Cumulative power/thermal report as of the current memory cycle
  /// (`enabled == false` and empty when power accounting is off).
  PowerReport power_report() { return controller_.power_report(mem_cycle_); }
  const Timings& timings() const { return controller_.timings(); }
  const Geometry& geometry() const { return controller_.geometry(); }
  std::size_t pending() const { return controller_.pending(); }
  bool can_accept_read() const { return controller_.can_accept_read(); }
  bool can_accept_write() const { return controller_.can_accept_write(); }

  /// Checkpoint hooks: controller state + both clock domains (including
  /// the rational accumulator), the event-gate backoff, and the
  /// core-domain completion buffer.
  void save(serial::Sink& s) const;
  void load(serial::Source& s);

  // --- lookahead-window queries (epoch-decoupled execution) -----------
  /// Number of core ticks from now until the one that executes memory
  /// cycle `mem_cycle` (>= 1; the current partial core tick counts).
  /// Exact inversion of the rational accumulator, like idle_core_cycles().
  Cycle core_cycles_until_mem(Cycle mem_cycle) const;
  /// Controller lookahead facts, re-exported for the channel's
  /// ready-bound computation (see SecurityEngine::ready_bound).
  Cycle inflight_read_finish() const {
    return controller_.inflight_read_finish();
  }
  std::size_t queued_reads() const { return controller_.queued_reads(); }
  bool has_queued_write_to_line(Addr addr) const {
    return controller_.has_queued_write_to_line(addr);
  }

  /// True while a completion sits in the controller or the core-domain
  /// buffer waiting for the next tick to surface and finish-stamp it
  /// (e.g. a write-forward produced by an enqueue after this cycle's
  /// tick). Skipping cycles in that state would stamp it late.
  bool has_undrained_completions() const {
    return controller_.has_undrained_completions() || !out_.empty();
  }

 private:
  Controller controller_;
  bool event_driven_ = false;
  /// Saturation backoff for the event gate (see tick_core_cycle). The
  /// burst doubles (up to the cap) each time a full burst ends and the
  /// controller is still issuing every cycle, so sustained saturation
  /// spends a vanishing fraction of ticks on next-event queries; any
  /// "future event" answer resets the length.
  static constexpr unsigned kGateBurst = 16;
  static constexpr unsigned kGateBurstCap = 256;
  unsigned gate_streak_ = 0;
  unsigned gate_burst_ = 0;
  unsigned gate_burst_len_ = kGateBurst;
  Cycle core_cycle_ = 0;
  Cycle mem_cycle_ = 0;
  // mem_cycles owed = core_cycle * mem_mhz / core_mhz, tracked exactly with
  // integer micro-hertz to avoid floating-point drift over long runs.
  std::uint64_t mem_khz_, core_khz_;
  std::uint64_t accum_ = 0;
  std::vector<Completion> out_;
};

}  // namespace secddr::dram
