#include "sim/core.h"

#include <algorithm>
#include <cassert>

namespace secddr::sim {

Core::Core(unsigned id, const CoreConfig& config, TraceSource& trace,
           MemoryPort& memory)
    : id_(id), config_(config), trace_(trace), memory_(memory) {}

void Core::fetch() {
  // Fill the ROB from the trace. Batches of non-memory instructions may be
  // split so the budget and ROB occupancy stay exact.
  while (rob_occupancy_ < config_.rob_size) {
    // Budget boundary: stop fetching but keep a partially consumed record
    // pending so its remaining gap and memory op survive into the next
    // phase — a raised budget resumes exactly where this one stopped.
    if (budget_reached()) return;
    if (!have_pending_record_) {
      if (trace_exhausted_) return;
      if (!trace_.next(pending_record_)) {
        trace_exhausted_ = true;
        return;
      }
      ++trace_records_;
      have_pending_record_ = true;
    }

    TraceRecord& rec = pending_record_;
    if (rec.gap > 0) {
      const std::uint64_t room = config_.rob_size - rob_occupancy_;
      std::uint32_t take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(rec.gap, room));
      if (budget_ != 0)
        take = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            take, budget_ - fetched_instructions_));
      rob_.push_back({Kind::kBatch, take, 0, true, true});
      rob_occupancy_ += take;
      fetched_instructions_ += take;
      rec.gap -= take;
      continue;
    }

    // The memory operation itself (one instruction).
    rob_.push_back({rec.is_write ? Kind::kStore : Kind::kLoad, 1, rec.addr,
                    false, false});
    rob_occupancy_ += 1;
    ++mem_ops_in_rob_;
    fetched_instructions_ += 1;
    have_pending_record_ = false;
  }
}

void Core::issue_pending() {
  // Issue every un-issued memory op in the window (oldest first),
  // resuming at the cursor instead of rescanning the whole ROB.
  while (issue_cursor_ < rob_.size()) {
    RobEntry& e = rob_[issue_cursor_];
    if (!e.issued) {
      if (e.kind == Kind::kLoad) {
        if (!memory_.issue_load(id_, e.addr, &e.done)) return;
        e.issued = true;
        ++stats_.loads;
      } else if (e.kind == Kind::kStore) {
        if (!memory_.issue_store(id_, e.addr)) return;
        e.issued = true;
        e.done = true;  // stores are posted
        ++stats_.stores;
      }
    }
    ++issue_cursor_;
  }
}

void Core::retire() {
  unsigned budget = config_.retire_width;
  bool stalled_on_load = false;
  while (budget > 0 && !rob_.empty()) {
    RobEntry& head = rob_.front();
    if (head.kind == Kind::kBatch) {
      const std::uint32_t take = std::min<std::uint32_t>(budget, head.remaining);
      head.remaining -= take;
      rob_occupancy_ -= take;
      stats_.instructions += take;
      budget -= take;
      if (head.remaining == 0) {
        rob_.pop_front();
        if (issue_cursor_ > 0) --issue_cursor_;
      }
      continue;
    }
    if (!head.issued || !head.done) {
      stalled_on_load = head.kind == Kind::kLoad;
      break;
    }
    rob_occupancy_ -= 1;
    stats_.instructions += 1;
    --budget;
    --mem_ops_in_rob_;
    rob_.pop_front();
    if (issue_cursor_ > 0) --issue_cursor_;
  }
  if (stalled_on_load) ++stats_.load_stall_cycles;
}

void Core::tick() {
  if (finished_) return;
  ++stats_.cycles;
  fetch();
  issue_pending();
  retire();
  // A record retained across the budget boundary belongs to the next
  // phase and does not keep this one alive.
  const bool no_more_fetch = trace_exhausted_ || budget_reached();
  if (no_more_fetch && rob_.empty() &&
      (budget_reached() || !have_pending_record_))
    finished_ = true;
}

Core::ComputeReplay Core::simulate_compute(Cycle max_ticks) const {
  // Caller guarantees pure_compute(): the ROB holds only issued+done
  // batch entries. Simulate upcoming ticks on three scalars — ROB
  // occupancy R, the pending record's remaining batch gap, and the fetch
  // budget — collapsing steady-state runs (full window, whole-retire-width
  // takes) in closed form. A tick is replayable iff fetch would add only
  // batch instructions (no memory op, no unknown trace record) and
  // retirement leaves the ROB nonempty (the emptying tick may flip
  // `finished_`, which the simulation loop must observe itself).
  const std::uint64_t C = config_.rob_size, W = config_.retire_width;
  std::uint64_t R = rob_occupancy_;
  std::uint64_t fetched = fetched_instructions_;
  std::uint64_t gap = have_pending_record_ ? pending_record_.gap : 0;
  const bool unknown_next = !have_pending_record_ && !trace_exhausted_;
  ComputeReplay out;
  while (out.ticks < max_ticks) {
    const std::uint64_t bud =
        budget_ ? (budget_ > fetched ? budget_ - fetched : 0)
                : ~std::uint64_t{0};
    const std::uint64_t supply = std::min(gap, bud);
    const std::uint64_t room = C - R;
    if (room == W && supply >= 2 * W && C > W) {
      // Steady state: fetch refills exactly what retirement drains, so
      // every tick in the run is identical. Leave >= one supply-W tail
      // for the per-tick checks below.
      const std::uint64_t runs = std::min<std::uint64_t>(
          supply / W - 1, max_ticks - out.ticks);
      out.ticks += runs;
      out.retired += runs * W;
      out.consumed += runs * W;
      gap -= runs * W;
      fetched += runs * W;
      continue;
    }
    const std::uint64_t take = std::min(room, supply);
    // Fetch would consume the record's last batch instruction with ROB
    // room (and budget) left: the memory op itself enters this tick.
    if (have_pending_record_ && take == gap && take < room &&
        (budget_ == 0 || fetched + take < budget_))
      break;
    // Fetch would read a trace record we cannot see.
    if (unknown_next && room > 0) break;
    const std::uint64_t r1 = R + take;
    if (r1 <= W) break;  // this tick empties the ROB (and may finish)
    R = r1 - W;
    gap -= take;
    fetched += take;
    ++out.ticks;
    out.retired += W;
    out.consumed += take;
  }
  out.occupancy = R;
  return out;
}

void Core::advance_compute(Cycle ticks) {
  // Run the same stepper the planner ran; by contract `ticks` does not
  // exceed the planner's count, so the stepper cannot stop early.
  const ComputeReplay r = simulate_compute(ticks);
  assert(r.ticks == ticks && "advance_compute past the replayable window");
  stats_.cycles += r.ticks;
  stats_.instructions += r.retired;
  fetched_instructions_ += r.consumed;
  if (r.consumed > 0) pending_record_.gap -= r.consumed;
  // Re-canonicalize: one batch entry carries the surviving occupancy.
  // Retirement consumes contiguous batch instructions identically however
  // they are grouped into entries, so this cannot change behaviour.
  rob_occupancy_ = r.occupancy;
  rob_.clear();
  rob_.push_back(
      {Kind::kBatch, static_cast<std::uint32_t>(r.occupancy), 0, true, true});
  issue_cursor_ = rob_.size();
}

Cycle Core::next_event_cycle(Cycle now) const {
  if (finished_) return kNoEvent;
  // Pure compute: the next k ticks are fetch + bulk retirement that
  // advance_idle() replays in closed form.
  if (pure_compute()) return now + 1 + compute_replayable_ticks();
  // Fetch can make progress (or discover trace exhaustion).
  if (rob_occupancy_ < config_.rob_size && !budget_reached() &&
      (have_pending_record_ || !trace_exhausted_))
    return now + 1;
  // An un-issued memory op retries (and touches cache stats) every cycle.
  if (issue_cursor_ < rob_.size()) return now + 1;
  // Retirement can make progress.
  if (!rob_.empty()) {
    if (rob_.front().done) return now + 1;
    return kNoEvent;  // head blocked on an outstanding load
  }
  return now + 1;  // empty ROB: the next tick marks the core finished
}

bool Core::blocked_on_issue(Addr* addr) const {
  if (finished_ || issue_cursor_ >= rob_.size()) return false;
  // Fetch can still make progress?
  if (rob_occupancy_ < config_.rob_size && !budget_reached() &&
      (have_pending_record_ || !trace_exhausted_))
    return false;
  if (rob_.front().done) return false;  // retirement can make progress
  *addr = rob_[issue_cursor_].addr;
  return true;
}

void Core::advance_idle(Cycle cycles) {
  if (finished_ || cycles == 0) return;
  if (pure_compute()) {
    advance_compute(cycles);
    return;
  }
  stats_.cycles += cycles;
  // The only idle state with work in flight: ROB head blocked on a load,
  // which retire() counts as a load-stall cycle on every tick.
  if (!rob_.empty() && rob_.front().kind == Kind::kLoad &&
      !rob_.front().done)
    stats_.load_stall_cycles += cycles;
}

void Core::save(serial::Sink& s) const {
  s.u64(rob_.size());
  for (const RobEntry& e : rob_) {
    s.u8(static_cast<std::uint8_t>(e.kind));
    s.u32(e.remaining);
    s.u64(e.addr);
    s.b(e.issued);
    s.b(e.done);
  }
  s.u64(issue_cursor_);
  s.u64(rob_occupancy_);
  s.u64(mem_ops_in_rob_);
  s.u64(fetched_instructions_);
  s.u64(trace_records_);
  s.u64(budget_);
  s.b(trace_exhausted_);
  s.b(finished_);
  s.b(have_pending_record_);
  s.u32(pending_record_.gap);
  s.b(pending_record_.is_write);
  s.u64(pending_record_.addr);
  serial::put(s, stats_);
}

void Core::load(serial::Source& s) {
  rob_.clear();
  const std::size_t n = s.count(15);
  for (std::size_t i = 0; i < n; ++i) {
    RobEntry e;
    e.kind = static_cast<Kind>(s.u8());
    e.remaining = s.u32();
    e.addr = s.u64();
    e.issued = s.b();
    e.done = s.b();
    rob_.push_back(e);
  }
  issue_cursor_ = s.u64();
  rob_occupancy_ = s.u64();
  mem_ops_in_rob_ = s.u64();
  fetched_instructions_ = s.u64();
  trace_records_ = s.u64();
  budget_ = s.u64();
  trace_exhausted_ = s.b();
  finished_ = s.b();
  have_pending_record_ = s.b();
  pending_record_.gap = s.u32();
  pending_record_.is_write = s.b();
  pending_record_.addr = s.u64();
  serial::get(s, stats_);

  // Re-derive the trace position: the bound source starts at its first
  // record, and every source is deterministic, so consuming the same
  // count lands on the identical next record.
  TraceRecord scratch;
  for (std::uint64_t i = 0; i < trace_records_; ++i)
    if (!trace_.next(scratch))
      throw std::runtime_error(
          "trace ended before the checkpointed position");
}

std::int64_t Core::done_flag_index(const bool* flag) const {
  for (std::size_t i = 0; i < rob_.size(); ++i)
    if (&rob_[i].done == flag) return static_cast<std::int64_t>(i);
  return -1;
}

}  // namespace secddr::sim
