#include "dram/controller.h"

#include <algorithm>
#include <cassert>

namespace secddr::dram {

Controller::Controller(const Geometry& geometry, const Timings& timings,
                       unsigned read_queue_size, unsigned write_queue_size,
                       SchedulingPolicy policy, const PowerConfig& power)
    : geometry_(geometry),
      timings_(timings),
      mapping_(geometry),
      policy_(policy),
      rq_size_(read_queue_size),
      wq_size_(write_queue_size),
      drain_low_(write_queue_size / 4),
      drain_high_(write_queue_size * 3 / 4),
      banks_(geometry.total_banks()),
      ranks_(geometry.ranks),
      power_cfg_(power) {
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    // Stagger refresh across ranks so they do not lock the channel together.
    ranks_[r].next_refresh_due =
        timings_.tREFI / (geometry_.ranks + 1) * (r + 1);
  }
  for (unsigned dir = 0; dir < 2; ++dir) {
    queues_[dir].resize(geometry_.total_banks());
    active_[dir].init(geometry_.total_banks());
    col_idx_[dir].init(geometry_.total_banks());
    pre_idx_[dir].init(geometry_.total_banks());
    closed_idx_[dir].resize(geometry_.ranks);
    for (auto& idx : closed_idx_[dir]) idx.init(geometry_.total_banks());
  }
  col_bus_floor_.assign(geometry_.ranks, 0);
  act_floor_.assign(geometry_.ranks, ActFloor{});

  if (power_cfg_.window_cycles == 0) power_cfg_.window_cycles = 1;
  if (power_cfg_.throttle_period == 0) power_cfg_.throttle_period = 1;
  power_on_ = power_cfg_.enabled;
  any_policy_ = power_cfg_.any_policy();
  remap_active_ = power_cfg_.enabled && power_cfg_.remap;
  throttle_period_ = power_cfg_.throttle_period;
  energy_model_ = analysis::EnergyModel(power_cfg_.energy);
  if (power_on_) {
    window_counts_.assign(geometry_.ranks, analysis::CommandCounts{});
    bank_activity_.assign(geometry_.total_banks(), 0);
    rank_energy_fj_.assign(geometry_.ranks, 0);
    const std::uint64_t period_fs =
        static_cast<std::uint64_t>(1e9 / timings_.clock_mhz + 0.5);
    thermal_.assign(geometry_.ranks,
                    analysis::ThermalNode(power_cfg_.thermal,
                                          power_cfg_.window_cycles, period_fs));
    if (remap_active_) {
      remap_.resize(geometry_.total_banks());
      remap_inv_.resize(geometry_.total_banks());
      for (unsigned i = 0; i < geometry_.total_banks(); ++i)
        remap_[i] = remap_inv_[i] = i;
    }
  }
}

DecodedAddr Controller::map_addr(Addr addr) const {
  DecodedAddr d = mapping_.decode(addr);
  if (remap_active_) {
    const unsigned phys = remap_[d.flat_bank(geometry_)];
    const unsigned in_rank = phys % geometry_.banks_per_rank();
    d.rank = phys / geometry_.banks_per_rank();
    d.bank_group = in_rank / geometry_.banks_per_group;
    d.bank = in_rank % geometry_.banks_per_group;
  }
  return d;
}

void Controller::prime_col_floors(bool is_write) const {
  if (have_last_col_) {
    col_ccd_same_ = last_col_cmd_ + timings_.tCCD_L;
    col_ccd_diff_ = last_col_cmd_ + timings_.tCCD_S;
  }
  const unsigned lat = is_write ? timings_.tCWL : timings_.tCL;
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    Cycle bus_ready = bus_free_at_;
    if (bus_free_at_ > 0 &&
        (bus_last_was_write_ != is_write || bus_last_rank_ != r))
      bus_ready += timings_.turnaround;
    col_bus_floor_[r] = bus_ready > lat ? bus_ready - lat : 0;
  }
}

void Controller::prime_act_floors() const {
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    const RankState& rank = ranks_[r];
    ActFloor& f = act_floor_[r];
    f.gated = rank.refresh_pending;
    if (f.gated) continue;
    const Cycle faw = rank.act_window.size() >= 4
                          ? rank.act_window.front() + timings_.tFAW
                          : 0;
    f.same_bg = rank.have_last_act
                    ? std::max(faw, rank.last_act + timings_.tRRD_L)
                    : faw;
    f.diff_bg = rank.have_last_act
                    ? std::max(faw, rank.last_act + timings_.tRRD_S)
                    : faw;
  }
}

void Controller::sync_indexes(unsigned dir, unsigned flat) {
  const BankQueue& bq = queues_[dir][flat];
  const bool nonempty = !bq.q.empty();
  const bool open = banks_[flat].is_open();
  active_[dir].set(flat, nonempty);
  col_idx_[dir].set(flat, nonempty && open && bq.match_count > 0);
  pre_idx_[dir].set(flat, nonempty && open && bq.match_count < bq.q.size());
  closed_idx_[dir][flat / geometry_.banks_per_rank()].set(
      flat, nonempty && !open);
}

void Controller::close_bank(unsigned flat, Cycle now) {
  banks_[flat].precharge(now, timings_.tRP);
  ++stats_.precharges;
  if (power_on_) {
    ++window_counts_[flat / geometry_.banks_per_rank()].pre;
    ++bank_activity_[flat];
  }
  if (observer_) {
    const unsigned in_rank = flat % geometry_.banks_per_rank();
    observer_->on_precharge(flat / geometry_.banks_per_rank(),
                            in_rank / geometry_.banks_per_group,
                            in_rank % geometry_.banks_per_group, now);
  }
  sync_indexes(0, flat);
  sync_indexes(1, flat);
}

int Controller::oldest_bank(unsigned dir) const {
  int best = -1;
  std::uint64_t best_seq = ~std::uint64_t{0};
  for (const unsigned flat : active_[dir].items) {
    const std::uint64_t s = queues_[dir][flat].q.front().seq;
    if (s < best_seq) {
      best_seq = s;
      best = static_cast<int>(flat);
    }
  }
  return best;
}

void Controller::recount_bank(unsigned flat) {
  const std::int64_t row = banks_[flat].open_row;
  queues_[0][flat].recount(row);
  queues_[1][flat].recount(row);
  sync_indexes(0, flat);
  sync_indexes(1, flat);
}

bool Controller::enqueue(Addr addr, bool is_write, std::uint64_t tag,
                         Cycle now) {
  // Close elapsed accounting windows before any bookkeeping so commands
  // recorded this cycle land in the window that contains `now`. With
  // policies enabled, window boundaries are event candidates and the
  // boundary tick has already run, making this a no-op; with policies
  // off it is pure (lazily caught-up) accounting either way.
  if (power_on_) power_advance(now);
  Request e{addr, map_addr(addr), tag, now, next_seq_, false};
  const unsigned flat = e.d.flat_bank(geometry_);
  if (is_write) {
    if (q_size_[1] >= wq_size_) return false;
    // Write merging: a newer write to the same line supersedes the queued
    // one. The superseded write completes (exactly once) here; the
    // surviving entry carries the new tag and completes when it issues,
    // so each logical write is counted and completed exactly once. A
    // same-line write lives in the same bank FIFO by construction, so
    // only that FIFO needs scanning.
    for (auto& w : queues_[1][flat].q) {
      if (line_base(w.addr) == line_base(addr)) {
        ++stats_.writes_enqueued;
        ++stats_.writes_completed;
        completions_.push_back({w.tag, w.addr, true, w.arrival, now});
        w.tag = tag;
        w.arrival = now;
        return true;
      }
    }
    ++next_seq_;
    const Bank& bank = banks_[flat];
    if (bank.is_open() &&
        bank.open_row == static_cast<std::int64_t>(e.d.row))
      ++queues_[1][flat].match_count;
    queues_[1][flat].q.push_back(e);
    ++q_size_[1];
    sync_indexes(1, flat);
    ++stats_.writes_enqueued;
    observe_event_candidate(entry_event_bound(e, true));
    // Crossing the drain watermark flips the next tick into write
    // service, making every queued write column a candidate.
    if (!draining_writes_ && q_size_[1] >= drain_high_)
      observe_event_candidate(now);
    return true;
  }
  if (q_size_[0] >= rq_size_) return false;
  // Write forwarding: serve the read from the pending write data. The
  // read completes here and never enters the read queue, so it does not
  // count as enqueued. Same line => same bank FIFO.
  for (const auto& w : queues_[1][flat].q) {
    if (line_base(w.addr) == line_base(addr)) {
      ++stats_.write_forwards;
      ++stats_.reads_completed;
      const Cycle finish = now + timings_.tCL;
      stats_.total_read_latency += finish - now;
      completions_.push_back({tag, addr, false, now, finish});
      return true;
    }
  }
  ++next_seq_;
  const Bank& bank = banks_[flat];
  if (bank.is_open() && bank.open_row == static_cast<std::int64_t>(e.d.row))
    ++queues_[0][flat].match_count;
  queues_[0][flat].q.push_back(e);
  ++q_size_[0];
  sync_indexes(0, flat);
  ++stats_.reads_enqueued;
  observe_event_candidate(entry_event_bound(e, false));
  return true;
}

bool Controller::has_queued_write_to_line(Addr addr) const {
  // Same line => same bank FIFO (the invariant enqueue() relies on for
  // merge/forward scans), so one FIFO scan decides.
  const unsigned flat = map_addr(addr).flat_bank(geometry_);
  for (const auto& w : queues_[1][flat].q)
    if (line_base(w.addr) == line_base(addr)) return true;
  return false;
}

Cycle Controller::column_ready_at(const Request& e, bool is_write) const {
  const Bank& bank = banks_[e.d.flat_bank(geometry_)];
  Cycle at = is_write ? bank.next_write : bank.next_read;

  // Column-to-column spacing (tCCD_S/tCCD_L).
  if (have_last_col_) {
    const bool same_bg =
        last_col_bg_ == e.d.bank_group && last_col_rank_ == e.d.rank;
    at = std::max(at, last_col_cmd_ + (same_bg ? timings_.tCCD_L
                                               : timings_.tCCD_S));
  }

  // Data-bus availability, including direction/rank turnaround: data starts
  // `lat` after the command, so the command may go `lat` before the bus
  // frees.
  Cycle bus_ready = bus_free_at_;
  if (bus_free_at_ > 0 && (bus_last_was_write_ != is_write ||
                           bus_last_rank_ != e.d.rank))
    bus_ready += timings_.turnaround;
  const unsigned lat = is_write ? timings_.tCWL : timings_.tCL;
  return std::max(at, bus_ready > lat ? bus_ready - lat : 0);
}

Cycle Controller::act_ready_at(const Request& e) const {
  const Bank& bank = banks_[e.d.flat_bank(geometry_)];
  const RankState& rank = ranks_[e.d.rank];
  // A refresh-gated bank is woken by the refresh events themselves.
  if (rank.refresh_pending) return kNoEvent;
  Cycle at = bank.next_activate;
  if (rank.act_window.size() >= 4)
    at = std::max(at, rank.act_window.front() + timings_.tFAW);
  if (rank.have_last_act)
    at = std::max(at, rank.last_act + (rank.last_act_bg == e.d.bank_group
                                           ? timings_.tRRD_L
                                           : timings_.tRRD_S));
  return at;
}

void Controller::apply_write_to_read_penalty(const Request& e,
                                             Cycle data_end) {
  // After write data ends, reads to the same rank must wait tWTR_S/L.
  for (unsigned bg = 0; bg < geometry_.bank_groups; ++bg) {
    const unsigned wtr =
        bg == e.d.bank_group ? timings_.tWTR_L : timings_.tWTR_S;
    for (unsigned b = 0; b < geometry_.banks_per_group; ++b) {
      const unsigned idx = e.d.rank * geometry_.banks_per_rank() +
                           bg * geometry_.banks_per_group + b;
      banks_[idx].next_read = std::max(banks_[idx].next_read, data_end + wtr);
    }
  }
}

void Controller::issue_column(unsigned flat, std::size_t pos, bool is_write,
                              Cycle now) {
  const unsigned dir = is_write ? 1 : 0;
  BankQueue& bq = queues_[dir][flat];
  Request e = bq.q[pos];
  bq.q.erase(bq.q.begin() + static_cast<std::ptrdiff_t>(pos));
  --bq.match_count;  // a column candidate always targets the open row
  --q_size_[dir];
  sync_indexes(dir, flat);

  Bank& bank = banks_[flat];
  if (e.activated_for)
    ++stats_.row_misses;
  else
    ++stats_.row_hits;
  if (power_on_) {
    analysis::CommandCounts& wc = window_counts_[e.d.rank];
    if (is_write)
      ++wc.wr;
    else
      ++wc.rd;
    ++bank_activity_[flat];
  }
  if (observer_) observer_->on_column(e.d, is_write, now);

  const unsigned burst = is_write ? timings_.write_burst_cycles
                                  : timings_.read_burst_cycles;
  const Cycle data_start = now + (is_write ? timings_.tCWL : timings_.tCL);
  const Cycle data_end = data_start + burst;
  bus_free_at_ = data_end;
  bus_last_was_write_ = is_write;
  bus_last_rank_ = e.d.rank;
  stats_.data_bus_busy_cycles += burst;
  last_col_cmd_ = now;
  have_last_col_ = true;
  last_col_bg_ = e.d.bank_group;
  last_col_rank_ = e.d.rank;

  if (is_write) {
    bank.next_precharge =
        std::max(bank.next_precharge, data_end + timings_.tWR);
    apply_write_to_read_penalty(e, data_end);
    ++stats_.writes_completed;
    completions_.push_back({e.tag, e.addr, true, e.arrival, data_end});
  } else {
    bank.next_precharge =
        std::max(bank.next_precharge, now + timings_.tRTP);
    inflight_reads_.push_back({e, data_end});
    inflight_min_finish_ = std::min(inflight_min_finish_, data_end);
  }
}

bool Controller::try_issue_column(bool is_write, Cycle now) {
  const unsigned dir = is_write ? 1 : 0;
  ++scan_stats_.issue_scans;
  scan_stats_.queue_depth_sum += q_size_[dir];

  if (policy_ == SchedulingPolicy::kFcfs) {
    // Strict FCFS considers only the globally oldest entry.
    const int flat = oldest_bank(dir);
    scan_stats_.entries_visited += active_[dir].items.size();
    if (flat < 0) return false;
    const Request& e = queues_[dir][static_cast<unsigned>(flat)].q.front();
    const Bank& bank = banks_[static_cast<unsigned>(flat)];
    if (!bank.is_open() ||
        bank.open_row != static_cast<std::int64_t>(e.d.row) ||
        now < column_ready_at(e, is_write))
      return false;
    issue_column(static_cast<unsigned>(flat), 0, is_write, now);
    ++scan_stats_.commands_issued;
    return true;
  }

  // FR-FCFS: the oldest row hit whose column command is allowed. Row hits
  // of the same bank share every timing constraint, so each bank
  // contributes (at most) its oldest open-row entry and the winner is the
  // minimum arrival seq across allowed banks — exactly the entry a
  // front-to-back scan of one global arrival-ordered deque would pick.
  if (col_idx_[dir].items.empty()) return false;
  bool primed = false;
  int best_flat = -1;
  std::size_t best_pos = 0;
  std::uint64_t best_seq = ~std::uint64_t{0};
  for (const unsigned flat : col_idx_[dir].items) {
    ++scan_stats_.entries_visited;
    const Bank& bank = banks_[flat];
    const BankQueue& bq = queues_[dir][flat];
    const Request& rep = bq.q.front();
    // Bank-level pre-filter: the full bound is a max including this term,
    // so a bank not yet column-ready by its own timing needs no floors.
    if (now < (is_write ? bank.next_write : bank.next_read)) continue;
    if (!primed) {
      prime_col_floors(is_write);
      primed = true;
    }
    if (now < column_ready_primed(bank, rep.d, is_write)) continue;
    const int pos = bq.first_match(
        static_cast<std::uint64_t>(bank.open_row),
        &scan_stats_.entries_visited);
    assert(pos >= 0);
    const std::uint64_t s = bq.q[static_cast<std::size_t>(pos)].seq;
    if (s < best_seq) {
      best_seq = s;
      best_flat = static_cast<int>(flat);
      best_pos = static_cast<std::size_t>(pos);
    }
  }
  if (best_flat < 0) return false;
  issue_column(static_cast<unsigned>(best_flat), best_pos, is_write, now);
  ++scan_stats_.commands_issued;
  return true;
}

bool Controller::try_issue_bank_prep(bool is_write, Cycle now) {
  const unsigned dir = is_write ? 1 : 0;
  ++scan_stats_.issue_scans;
  scan_stats_.queue_depth_sum += q_size_[dir];

  const auto do_act = [&](unsigned flat, Request& e) {
    Bank& bank = banks_[flat];
    bank.activate(e.d.row, now, timings_.tRCD, timings_.tRAS);
    RankState& rank = ranks_[e.d.rank];
    rank.act_window.push_back(now);
    while (rank.act_window.size() > 4) rank.act_window.pop_front();
    rank.last_act = now;
    rank.have_last_act = true;
    rank.last_act_bg = e.d.bank_group;
    e.activated_for = true;
    ++stats_.activates;
    if (power_on_) {
      ++window_counts_[e.d.rank].act;
      ++bank_activity_[flat];
    }
    if (observer_) observer_->on_activate(e.d, now);
    recount_bank(flat);
    ++scan_stats_.commands_issued;
  };
  const auto do_pre = [&](unsigned flat) {
    close_bank(flat, now);
    ++scan_stats_.commands_issued;
  };

  if (policy_ == SchedulingPolicy::kFcfs) {
    const int flat_i = oldest_bank(dir);
    scan_stats_.entries_visited += active_[dir].items.size();
    if (flat_i < 0) return false;
    const unsigned flat = static_cast<unsigned>(flat_i);
    Request& e = queues_[dir][flat].q.front();
    Bank& bank = banks_[flat];
    if (bank.is_open() &&
        bank.open_row == static_cast<std::int64_t>(e.d.row))
      return false;  // row hit waiting on timing only
    if (!bank.is_open()) {
      if (now < act_ready_at(e)) return false;
      do_act(flat, e);
      return true;
    }
    if (now < bank.next_precharge) return false;
    do_pre(flat);
    return true;
  }

  // FR-FCFS: ACT or PRE for the oldest request whose bank is not ready.
  // Per bank the candidate is its oldest non-row-hit entry (the whole
  // FIFO when the bank is closed); the action's predicate is bank-level,
  // so the arbitration is again min seq across allowed banks. Closed
  // banks are grouped per rank: when the rank's tFAW/tRRD floor alone
  // blocks every ACT (one comparison), the whole group is skipped.
  enum class Action { kAct, kPre };
  prime_act_floors();
  int best_flat = -1;
  Action best_action = Action::kAct;
  std::uint64_t best_seq = ~std::uint64_t{0};
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    const BankIndex& idx = closed_idx_[dir][r];
    if (idx.items.empty()) continue;
    ++scan_stats_.entries_visited;
    const ActFloor& f = act_floor_[r];
    if (f.gated || (now < f.same_bg && now < f.diff_bg)) continue;
    for (const unsigned flat : idx.items) {
      ++scan_stats_.entries_visited;
      const Request& head = queues_[dir][flat].q.front();
      if (head.seq >= best_seq) continue;
      if (now < act_ready_primed(banks_[flat], head.d)) continue;
      best_seq = head.seq;
      best_flat = static_cast<int>(flat);
      best_action = Action::kAct;
    }
  }
  for (const unsigned flat : pre_idx_[dir].items) {
    ++scan_stats_.entries_visited;
    const Bank& bank = banks_[flat];
    if (now < bank.next_precharge) continue;
    const BankQueue& bq = queues_[dir][flat];
    const int pos = bq.first_mismatch(
        static_cast<std::uint64_t>(bank.open_row),
        &scan_stats_.entries_visited);
    assert(pos >= 0);
    const std::uint64_t s = bq.q[static_cast<std::size_t>(pos)].seq;
    if (s < best_seq) {
      best_seq = s;
      best_flat = static_cast<int>(flat);
      best_action = Action::kPre;
    }
  }
  if (best_flat < 0) return false;
  const unsigned flat = static_cast<unsigned>(best_flat);
  if (best_action == Action::kAct)
    do_act(flat, queues_[dir][flat].q.front());
  else
    do_pre(flat);
  return true;
}

bool Controller::handle_refresh(Cycle now) {
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    RankState& rank = ranks_[r];
    if (!rank.refresh_pending) {
      if (now >= rank.next_refresh_due) rank.refresh_pending = true;
      continue;
    }
    // Precharge all open banks in the rank, then refresh.
    bool all_closed = true;
    for (unsigned b = 0; b < geometry_.banks_per_rank(); ++b) {
      const unsigned flat = r * geometry_.banks_per_rank() + b;
      if (banks_[flat].is_open()) {
        all_closed = false;
        if (now >= banks_[flat].next_precharge) {
          close_bank(flat, now);
          return true;
        }
      }
    }
    if (all_closed) {
      bool ready = true;
      for (unsigned b = 0; b < geometry_.banks_per_rank(); ++b) {
        const Bank& bank = banks_[r * geometry_.banks_per_rank() + b];
        if (now < bank.next_activate) {
          ready = false;
          break;
        }
      }
      if (ready) {
        for (unsigned b = 0; b < geometry_.banks_per_rank(); ++b) {
          Bank& bank = banks_[r * geometry_.banks_per_rank() + b];
          bank.next_activate = std::max(bank.next_activate, now + timings_.tRFC);
        }
        rank.refresh_pending = false;
        rank.next_refresh_due += timings_.tREFI;
        ++stats_.refreshes;
        if (power_on_) ++window_counts_[r].ref;
        if (observer_) observer_->on_refresh(r, now);
        return true;
      }
    }
  }
  return false;
}

Cycle Controller::entry_event_bound(const Request& e, bool is_write) const {
  // Derived from the same column_ready_at()/act_ready_at() bounds the
  // issue predicates test against, so "allowed" is exactly "now >= bound"
  // and the memoized event times can never drift from the predicates.
  const Bank& bank = banks_[e.d.flat_bank(geometry_)];
  if (bank.is_open() && bank.open_row == static_cast<std::int64_t>(e.d.row)) {
    // A write row hit is only a candidate while writes are being served;
    // the transitions into write service (drain watermark crossing, read
    // queue emptying) are themselves observed events, so until then the
    // entry schedules nothing.
    if (is_write && !serving_writes()) return kNoEvent;
    return column_ready_at(e, is_write);
  }
  if (bank.is_open()) {
    // Row conflict: a precharge becomes possible.
    return bank.next_precharge;
  }
  // Closed bank: an activate becomes possible (kNoEvent while refresh-gated).
  return act_ready_at(e);
}

Cycle Controller::next_event_cycle(Cycle now) const {
  // The event set can move earlier only via enqueue() (which folds the
  // new entry's bound into the cache); mutations inside tick() only
  // happen once the cached event time has been reached, after which the
  // cache expires here and is recomputed against the post-mutation state.
  if (next_event_valid_ && next_event_cache_ >= now) return next_event_cache_;
  next_event_cache_ = compute_next_event_cycle(now);
  next_event_valid_ = true;
  return next_event_cache_;
}

Cycle Controller::compute_next_event_cycle(Cycle now) const {
  Cycle next = kNoEvent;
  // Every timing constraint below is of the form "allowed once now >= X",
  // so the earliest cycle an entry *could* act is the max of its X values
  // and the min over entries lower-bounds the next state change. Commands
  // this query admits may still lose the one-command-per-cycle arbitration
  // in tick(); that only wakes the caller early, never late.
  const auto consider = [&](Cycle at) { next = std::min(next, std::max(at, now)); };
  // `consider` clamps to >= now, so once the running minimum hits `now`
  // nothing can lower it further — the remaining scans are skipped. The
  // returned value is identical either way.

  // Command-bound variant: while the thermal throttle is engaged, tick()
  // only issues on cycles divisible by the throttle period, so command
  // bounds round up to the next allowed cycle. Retirement, refresh, and
  // the window-boundary candidates stay unrounded (never throttled), and
  // the boundary candidate below covers the disengagement case where a
  // command becomes issuable before its rounded bound.
  const auto consider_cmd = [&](Cycle at) {
    at = std::max(at, now);
    if (throttle_engaged_)
      at = (at + throttle_period_ - 1) / throttle_period_ * throttle_period_;
    next = std::min(next, at);
  };

  // The write-drain hysteresis flip is itself a state change the next
  // tick performs (even though no command issues that cycle), and it
  // changes which columns are servable right after.
  if (draining_writes_ ? q_size_[1] <= drain_low_ : q_size_[1] >= drain_high_)
    return now;

  // With a policy enabled, the accounting-window boundary is a state
  // change in its own right (throttle trip/release, remap swap), so the
  // event loop must tick it. With policies off, boundaries are lazy pure
  // accounting and schedule nothing.
  if (any_policy_)
    consider(power_window_start_ + power_cfg_.window_cycles);

  if (inflight_min_finish_ != kNoEvent) {
    consider(inflight_min_finish_);
    if (next == now) return now;
  }

  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    const RankState& rank = ranks_[r];
    if (!rank.refresh_pending) {
      consider(rank.next_refresh_due);
      continue;
    }
    // Refresh in progress: open banks precharge as they become eligible;
    // once all are closed the refresh fires when every bank is activatable.
    bool all_closed = true;
    Cycle refresh_ready = now;
    for (unsigned b = 0; b < geometry_.banks_per_rank(); ++b) {
      const Bank& bank = banks_[r * geometry_.banks_per_rank() + b];
      if (bank.is_open()) {
        all_closed = false;
        consider(bank.next_precharge);
      } else {
        refresh_ready = std::max(refresh_ready, bank.next_activate);
      }
    }
    if (all_closed) consider(refresh_ready);
  }
  if (next == now) return now;

  if (policy_ == SchedulingPolicy::kFcfs) {
    // Strict FCFS only ever considers the globally oldest entry of each
    // direction's queue.
    for (unsigned dir = 0; dir < 2; ++dir) {
      const int flat = oldest_bank(dir);
      if (flat < 0) continue;
      const Cycle at = entry_event_bound(
          queues_[dir][static_cast<unsigned>(flat)].q.front(), dir == 1);
      if (at != kNoEvent) consider_cmd(at);
    }
    return next;
  }

  // FR-FCFS: per (bank, direction) there are at most two distinct bounds —
  // the shared column time of its row hits and the bank-level
  // precharge/activate time of its other entries — so the scan is
  // O(active banks), no per-entry work and no dedup scratch needed.
  bool act_primed = false;
  for (unsigned dir = 0; dir < 2; ++dir) {
    const bool is_write = dir == 1;
    for (unsigned r = 0; r < geometry_.ranks; ++r) {
      if (closed_idx_[dir][r].items.empty()) continue;
      if (!act_primed) {
        prime_act_floors();
        act_primed = true;
      }
      // A refresh-gated rank contributes no ACT bounds at all (the
      // refresh's own events wake the controller), exactly as
      // act_ready_primed would report per bank.
      if (act_floor_[r].gated) continue;
      for (const unsigned flat : closed_idx_[dir][r].items)
        consider_cmd(act_ready_primed(banks_[flat],
                                      queues_[dir][flat].q.front().d));
      if (next == now) return now;
    }
    for (const unsigned flat : pre_idx_[dir].items)
      consider_cmd(banks_[flat].next_precharge);
    if (next == now) return now;
    // Column candidates live in their own index (write hits schedule
    // nothing while writes are not being served; the transitions into
    // write service are observed events themselves).
    if (is_write && !serving_writes()) continue;
    if (col_idx_[dir].items.empty()) continue;
    prime_col_floors(is_write);
    for (const unsigned flat : col_idx_[dir].items)
      consider_cmd(column_ready_primed(
          banks_[flat], queues_[dir][flat].q.front().d, is_write));
  }
  return next;
}

void Controller::tick(Cycle now) {
  // Close elapsed accounting windows first: command taps below must land
  // in the window containing `now`, and the boundary's policy decisions
  // (throttle trip/release, remap swap) must precede this cycle's issue.
  if (power_on_) power_advance(now);

  // Retire reads whose data has arrived. The pass visits every entry, so
  // the surviving minimum finish is recomputed for free.
  if (inflight_min_finish_ <= now) {
    Cycle min_finish = kNoEvent;
    for (std::size_t i = 0; i < inflight_reads_.size();) {
      if (inflight_reads_[i].finish <= now) {
        const auto& fr = inflight_reads_[i];
        ++stats_.reads_completed;
        stats_.total_read_latency += fr.finish - fr.entry.arrival;
        completions_.push_back(
            {fr.entry.tag, fr.entry.addr, false, fr.entry.arrival, fr.finish});
        inflight_reads_[i] = inflight_reads_.back();
        inflight_reads_.pop_back();
      } else {
        min_finish = std::min(min_finish, inflight_reads_[i].finish);
        ++i;
      }
    }
    inflight_min_finish_ = min_finish;
  }

  // Update write-drain mode.
  if (q_size_[1] >= drain_high_) draining_writes_ = true;
  if (q_size_[1] <= drain_low_) draining_writes_ = false;
  const bool serve_writes = serving_writes();

  // One command slot per cycle: refresh first, then columns, then prep.
  if (handle_refresh(now)) return;
  // Thermal throttle: while engaged, command issue is gated to one cycle
  // in `throttle_period` (refresh above is exempt — retention is not
  // negotiable). Retirement and drain bookkeeping already ran.
  if (throttle_engaged_ && now % throttle_period_ != 0) return;
  if (serve_writes) {
    if (try_issue_column(true, now)) return;
    if (try_issue_column(false, now)) return;  // opportunistic reads
    if (try_issue_bank_prep(true, now)) return;
    if (try_issue_bank_prep(false, now)) return;
  } else {
    if (try_issue_column(false, now)) return;
    if (try_issue_bank_prep(false, now)) return;
    // Idle read path: prep writes in the background.
    if (try_issue_bank_prep(true, now)) return;
  }
}

void Controller::power_advance(Cycle now) {
  // `power_window_start_` never exceeds the last boundary <= every
  // processed cycle, so the subtraction cannot underflow.
  while (now - power_window_start_ >= power_cfg_.window_cycles)
    close_power_window();
}

void Controller::close_power_window() {
  const std::uint64_t w = power_cfg_.window_cycles;
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    const analysis::EnergyBreakdown eb =
        energy_model_.window_energy(window_counts_[r], w);
    const std::uint64_t fj = eb.total_fj();
    thermal_[r].apply_window(fj);
    rank_energy_fj_[r] += fj;
    energy_total_ += eb;
    counts_total_ += window_counts_[r];
    window_counts_[r] = analysis::CommandCounts{};
  }
  ++power_windows_;
  if (power_cfg_.throttle) {
    std::int64_t hottest = thermal_[0].temp_mc();
    for (unsigned r = 1; r < geometry_.ranks; ++r)
      hottest = std::max(hottest, thermal_[r].temp_mc());
    if (!throttle_engaged_ && hottest >= power_cfg_.trip_mc)
      throttle_engaged_ = true;
    else if (throttle_engaged_ && hottest <= power_cfg_.release_mc)
      throttle_engaged_ = false;
    if (throttle_engaged_) ++throttled_windows_;
  }
  if (remap_active_) {
    ++windows_since_swap_;
    maybe_remap();
  }
  std::fill(bank_activity_.begin(), bank_activity_.end(), 0);
  power_window_start_ += w;
}

void Controller::maybe_remap() {
  if (windows_since_swap_ < power_cfg_.remap_min_windows) return;
  if (geometry_.ranks < 2) return;
  // Hottest and coolest rank by full-precision Q16 temperature; ties go
  // to the lowest rank index (deterministic).
  unsigned hot = 0, cold = 0;
  for (unsigned r = 1; r < geometry_.ranks; ++r) {
    if (thermal_[r].temp_q16() > thermal_[hot].temp_q16()) hot = r;
    if (thermal_[r].temp_q16() < thermal_[cold].temp_q16()) cold = r;
  }
  if (hot == cold) return;
  if (thermal_[hot].temp_mc() - thermal_[cold].temp_mc() <
      power_cfg_.remap_delta_mc)
    return;
  // Candidate banks must have empty FIFOs in both directions: queued
  // entries were decoded under the old permutation, and the write
  // merge/forward scans rely on "same line => same bank FIFO". Swapping
  // only idle banks keeps every in-flight invariant untouched (bank
  // timing state is physical and travels with the physical bank).
  const unsigned bpr = geometry_.banks_per_rank();
  const auto idle = [&](unsigned flat) {
    return queues_[0][flat].q.empty() && queues_[1][flat].q.empty();
  };
  int src = -1;
  std::uint64_t src_activity = 0;
  for (unsigned b = 0; b < bpr; ++b) {
    const unsigned flat = hot * bpr + b;
    if (!idle(flat)) continue;
    if (src < 0 || bank_activity_[flat] > src_activity) {
      src = static_cast<int>(flat);
      src_activity = bank_activity_[flat];
    }
  }
  if (src < 0 || src_activity == 0) return;  // nothing hot worth moving
  int dst = -1;
  std::uint64_t dst_activity = 0;
  for (unsigned b = 0; b < bpr; ++b) {
    const unsigned flat = cold * bpr + b;
    if (!idle(flat)) continue;
    if (dst < 0 || bank_activity_[flat] < dst_activity) {
      dst = static_cast<int>(flat);
      dst_activity = bank_activity_[flat];
    }
  }
  if (dst < 0) return;
  const unsigned lsrc = remap_inv_[static_cast<unsigned>(src)];
  const unsigned ldst = remap_inv_[static_cast<unsigned>(dst)];
  std::swap(remap_[lsrc], remap_[ldst]);
  remap_inv_[static_cast<unsigned>(src)] = ldst;
  remap_inv_[static_cast<unsigned>(dst)] = lsrc;
  ++remap_swaps_;
  windows_since_swap_ = 0;
}

void Controller::reset_power_stats() {
  energy_total_ = analysis::EnergyBreakdown{};
  counts_total_ = analysis::CommandCounts{};
  power_windows_ = 0;
  throttled_windows_ = 0;
  remap_swaps_ = 0;
  std::fill(rank_energy_fj_.begin(), rank_energy_fj_.end(), 0);
  for (analysis::ThermalNode& t : thermal_) t.reset_peak();
}

PowerReport Controller::power_report(Cycle now) {
  PowerReport r;
  r.enabled = power_on_;
  if (!power_on_) return r;
  power_advance(now);
  r.energy = energy_total_;
  r.counts = counts_total_;
  r.windows = power_windows_;
  r.throttled_windows = throttled_windows_;
  r.remap_swaps = remap_swaps_;
  r.ranks.reserve(geometry_.ranks);
  for (unsigned i = 0; i < geometry_.ranks; ++i)
    r.ranks.push_back(
        {rank_energy_fj_[i], thermal_[i].temp_mc(), thermal_[i].peak_mc()});
  return r;
}

namespace {

void save_request(serial::Sink& s, const Request& e) {
  // `d` is a pure function of the address; the loader re-decodes it.
  s.u64(e.addr);
  s.u64(e.tag);
  s.u64(e.arrival);
  s.u64(e.seq);
  s.b(e.activated_for);
}

}  // namespace

Request Controller::load_request(serial::Source& s) const {
  Request e;
  e.addr = s.u64();
  // Re-decode through the (already restored) bank permutation, so `d`
  // matches what enqueue() computed in the donor process.
  e.d = map_addr(e.addr);
  e.tag = s.u64();
  e.arrival = s.u64();
  e.seq = s.u64();
  e.activated_for = s.b();
  return e;
}

void Controller::save(serial::Sink& s) const {
  // Power/thermal block first: load_request() re-decodes queued requests
  // through the remap table, so the table must already be restored when
  // the queues below are read back.
  if (power_on_) {
    s.u64(power_window_start_);
    for (const analysis::CommandCounts& c : window_counts_) serial::put(s, c);
    for (const std::uint64_t a : bank_activity_) s.u64(a);
    for (unsigned r = 0; r < geometry_.ranks; ++r) {
      s.i64(thermal_[r].temp_q16());
      s.i64(thermal_[r].peak_q16());
      s.u64(rank_energy_fj_[r]);
    }
    serial::put(s, energy_total_);
    serial::put(s, counts_total_);
    s.u64(power_windows_);
    s.u64(throttled_windows_);
    s.u64(remap_swaps_);
    s.u64(windows_since_swap_);
    s.b(throttle_engaged_);
    if (remap_active_)
      for (const std::uint32_t p : remap_) s.u32(p);
  }
  s.u64(banks_.size());
  for (const Bank& b : banks_) {
    s.i64(b.open_row);
    s.u64(b.next_activate);
    s.u64(b.next_read);
    s.u64(b.next_write);
    s.u64(b.next_precharge);
  }
  s.u64(ranks_.size());
  for (const RankState& r : ranks_) {
    s.u64(r.act_window.size());
    for (const Cycle c : r.act_window) s.u64(c);
    s.u64(r.last_act);
    s.b(r.have_last_act);
    s.u32(r.last_act_bg);
    s.u64(r.next_refresh_due);
    s.b(r.refresh_pending);
  }
  for (unsigned dir = 0; dir < 2; ++dir) {
    for (const BankQueue& bq : queues_[dir]) {
      s.u64(bq.q.size());
      for (const Request& e : bq.q) save_request(s, e);
      s.u32(bq.match_count);
    }
    s.u32(q_size_[dir]);
  }
  s.u64(next_seq_);
  s.b(draining_writes_);
  s.u64(inflight_reads_.size());
  for (const InflightRead& fr : inflight_reads_) {
    save_request(s, fr.entry);
    s.u64(fr.finish);
  }
  s.u64(inflight_min_finish_);
  serial::put(s, completions_);
  s.u64(bus_free_at_);
  s.b(bus_last_was_write_);
  s.u32(bus_last_rank_);
  s.u64(last_col_cmd_);
  s.b(have_last_col_);
  s.u32(last_col_bg_);
  s.u32(last_col_rank_);
  serial::put(s, stats_);
  serial::put(s, scan_stats_);
}

void Controller::load(serial::Source& s) {
  if (power_on_) {
    power_window_start_ = s.u64();
    for (analysis::CommandCounts& c : window_counts_) serial::get(s, c);
    for (std::uint64_t& a : bank_activity_) a = s.u64();
    for (unsigned r = 0; r < geometry_.ranks; ++r) {
      const std::int64_t t_q16 = s.i64();
      const std::int64_t peak_q16 = s.i64();
      thermal_[r].set_state(t_q16, peak_q16);
      rank_energy_fj_[r] = s.u64();
    }
    serial::get(s, energy_total_);
    serial::get(s, counts_total_);
    power_windows_ = s.u64();
    throttled_windows_ = s.u64();
    remap_swaps_ = s.u64();
    windows_since_swap_ = s.u64();
    throttle_engaged_ = s.b();
    if (remap_active_) {
      for (std::uint32_t& p : remap_) {
        p = s.u32();
        if (p >= geometry_.total_banks())
          throw std::runtime_error("controller remap entry out of range");
      }
      for (unsigned i = 0; i < geometry_.total_banks(); ++i)
        remap_inv_[remap_[i]] = i;
    }
  }
  if (s.u64() != banks_.size())
    throw std::runtime_error("controller bank count mismatch");
  for (Bank& b : banks_) {
    b.open_row = s.i64();
    b.next_activate = s.u64();
    b.next_read = s.u64();
    b.next_write = s.u64();
    b.next_precharge = s.u64();
  }
  if (s.u64() != ranks_.size())
    throw std::runtime_error("controller rank count mismatch");
  for (RankState& r : ranks_) {
    r.act_window.clear();
    const std::size_t acts = s.count(8);
    for (std::size_t i = 0; i < acts; ++i) r.act_window.push_back(s.u64());
    r.last_act = s.u64();
    r.have_last_act = s.b();
    r.last_act_bg = s.u32();
    r.next_refresh_due = s.u64();
    r.refresh_pending = s.b();
  }
  for (unsigned dir = 0; dir < 2; ++dir) {
    for (BankQueue& bq : queues_[dir]) {
      bq.q.clear();
      const std::size_t n = s.count(33);
      for (std::size_t i = 0; i < n; ++i)
        bq.q.push_back(load_request(s));
      bq.match_count = s.u32();
    }
    q_size_[dir] = s.u32();
  }
  next_seq_ = s.u64();
  draining_writes_ = s.b();
  inflight_reads_.clear();
  const std::size_t inflight = s.count(41);
  for (std::size_t i = 0; i < inflight; ++i) {
    InflightRead fr;
    fr.entry = load_request(s);
    fr.finish = s.u64();
    inflight_reads_.push_back(fr);
  }
  inflight_min_finish_ = s.u64();
  serial::get(s, completions_);
  bus_free_at_ = s.u64();
  bus_last_was_write_ = s.b();
  bus_last_rank_ = s.u32();
  last_col_cmd_ = s.u64();
  have_last_col_ = s.b();
  last_col_bg_ = s.u32();
  last_col_rank_ = s.u32();
  serial::get(s, stats_);
  serial::get(s, scan_stats_);

  // Re-derive everything the serialized state determines: the candidate
  // indexes (membership from FIFO + bank state; item order is
  // behavior-neutral) and the next-event memo.
  const unsigned total = geometry_.total_banks();
  for (unsigned dir = 0; dir < 2; ++dir) {
    active_[dir].init(total);
    col_idx_[dir].init(total);
    pre_idx_[dir].init(total);
    for (auto& idx : closed_idx_[dir]) idx.init(total);
    for (unsigned flat = 0; flat < total; ++flat) sync_indexes(dir, flat);
  }
  next_event_valid_ = false;
}

}  // namespace secddr::dram
