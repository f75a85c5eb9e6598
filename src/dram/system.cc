#include "dram/system.h"

#include <algorithm>

namespace secddr::dram {

DramSystem::DramSystem(const Geometry& geometry, const Timings& timings,
                       double core_clock_mhz, SchedulingPolicy policy,
                       const PowerConfig& power)
    : controller_(geometry, timings, 64, 64, policy, power),
      mem_khz_(static_cast<std::uint64_t>(timings.clock_mhz * 1000.0)),
      core_khz_(static_cast<std::uint64_t>(core_clock_mhz * 1000.0)) {}

bool DramSystem::enqueue(Addr addr, bool is_write, std::uint64_t tag) {
  return controller_.enqueue(addr, is_write, tag, mem_cycle_);
}

void DramSystem::tick_core_cycle() {
  ++core_cycle_;
  accum_ += mem_khz_;
  while (accum_ >= core_khz_) {
    accum_ -= core_khz_;
    // Event-driven mode: a memory tick strictly before the controller's
    // next event is a guaranteed no-op — skip the call (the bound is a
    // field every tick leaves behind, so the check is O(1)).
    if (!event_driven_ || controller_.next_event_cycle(mem_cycle_) <= mem_cycle_)
      controller_.tick(mem_cycle_);
    ++mem_cycle_;
  }
  // Drain controller completions into the core-clock domain.
  for (const auto& c : controller_.completions()) {
    Completion cc = c;
    cc.finish = core_cycle_;  // visible to the core now
    out_.push_back(cc);
  }
  controller_.completions().clear();
}

Cycle DramSystem::idle_core_cycles() const {
  const Cycle event = controller_.next_event_cycle(mem_cycle_);
  if (event == kNoEvent) return kNoEvent;
  // The controller must run tick(event), which takes `event - mem_cycle_ + 1`
  // memory ticks; clamp so the fixed-point math below cannot overflow.
  const std::uint64_t need =
      std::min<std::uint64_t>(event - mem_cycle_ + 1, 1ull << 32);
  // Smallest k with floor((accum_ + k*mem_khz_) / core_khz_) >= need, i.e.
  // the first core tick that produces the event's memory tick. Everything
  // before it is skippable.
  const std::uint64_t k =
      (need * core_khz_ - accum_ + mem_khz_ - 1) / mem_khz_;
  return k - 1;  // k >= 1 because accum_ < core_khz_ <= need * core_khz_
}

void DramSystem::advance_idle_core_cycles(Cycle cycles) {
  // Contract: every memory tick in the window is a controller no-op (the
  // caller checked idle_core_cycles()), so only the clocks advance.
  core_cycle_ += cycles;
  accum_ += cycles * mem_khz_;
  mem_cycle_ += accum_ / core_khz_;
  accum_ %= core_khz_;
}

Cycle DramSystem::core_cycles_until_mem(Cycle mem_cycle) const {
  // Same fixed-point inversion as idle_core_cycles(), but asking for the
  // core tick that *executes* `mem_cycle` rather than the span before it.
  const std::uint64_t need =
      mem_cycle <= mem_cycle_
          ? 1
          : std::min<std::uint64_t>(mem_cycle - mem_cycle_ + 1, 1ull << 32);
  return (need * core_khz_ - accum_ + mem_khz_ - 1) / mem_khz_;
}

std::vector<Completion> DramSystem::drain_completions() {
  std::vector<Completion> v;
  v.swap(out_);
  return v;
}

void DramSystem::save(serial::Sink& s) const {
  controller_.save(s);
  s.u64(core_cycle_);
  s.u64(mem_cycle_);
  s.u64(accum_);
  serial::put(s, out_);
}

void DramSystem::load(serial::Source& s) {
  controller_.load(s);
  core_cycle_ = s.u64();
  mem_cycle_ = s.u64();
  accum_ = s.u64();
  serial::get(s, out_);
}

}  // namespace secddr::dram
