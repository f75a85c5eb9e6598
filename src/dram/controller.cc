#include "dram/controller.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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
      rows_(geometry.total_banks()),
      links_(geometry.total_banks()),
      ranks_(geometry.ranks),
      power_cfg_(power) {
  if (rq_size_ >= kNil || wq_size_ >= kNil)
    throw std::invalid_argument("controller queue size out of range");
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    // Stagger refresh across ranks so they do not lock the channel together.
    ranks_[r].next_refresh_due =
        timings_.tREFI / (geometry_.ranks + 1) * (r + 1);
  }
  const unsigned groups = geometry_.ranks * geometry_.bank_groups;
  group_of_.resize(geometry_.total_banks());
  for (unsigned flat = 0; flat < geometry_.total_banks(); ++flat)
    group_of_[flat] = flat / geometry_.banks_per_group;
  floors_.assign(groups, Floors{});
  group_.assign(groups, GroupBounds{});
  reset_queues();
  prime_floors();

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

// ------------------------------------------------------------ bank FIFOs

void Controller::reset_queues() {
  const unsigned sizes[2] = {rq_size_, wq_size_};
  for (unsigned dir = 0; dir < 2; ++dir) {
    pool_[dir].assign(sizes[dir], Node{});
    for (unsigned i = 0; i + 1 < sizes[dir]; ++i)
      pool_[dir][i].next = static_cast<Slot>(i + 1);
    free_[dir] = sizes[dir] > 0 ? 0 : kNil;
    q_size_[dir] = 0;
  }
  for (BankRow& row : rows_)
    for (unsigned dir = 0; dir < 2; ++dir)
      row.hit_seq[dir] = row.conf_seq[dir] = kNoSeq;
  std::fill(links_.begin(), links_.end(), BankLinks{});
  std::fill(group_.begin(), group_.end(), GroupBounds{});
}

void Controller::push_entry(unsigned dir, unsigned flat, const Request& e) {
  std::vector<Node>& pool = pool_[dir];
  const Slot s = free_[dir];
  assert(s != kNil && "push past the queue size");
  free_[dir] = pool[s].next;
  BankLinks& l = links_[flat];
  pool[s] = Node{e, l.tail[dir], kNil};
  if (l.tail[dir] != kNil)
    pool[l.tail[dir]].next = s;
  else
    l.head[dir] = s;
  l.tail[dir] = s;
  BankRow& row = rows_[flat];
  if (row.bank.open_row == static_cast<std::int64_t>(e.d.row)) {
    if (l.hit[dir] == kNil) {
      l.hit[dir] = s;
      row.hit_seq[dir] = e.seq;
    }
  } else if (l.conf[dir] == kNil) {
    l.conf[dir] = s;
    row.conf_seq[dir] = e.seq;
  }
  ++q_size_[dir];
  fold_bank(flat);
}

void Controller::reclassify(unsigned flat) {
  BankRow& row = rows_[flat];
  BankLinks& l = links_[flat];
  for (unsigned dir = 0; dir < 2; ++dir) {
    const std::vector<Node>& pool = pool_[dir];
    l.hit[dir] = kNil;
    row.hit_seq[dir] = kNoSeq;
    l.conf[dir] = l.head[dir];
    row.conf_seq[dir] = l.head[dir] != kNil ? pool[l.head[dir]].r.seq : kNoSeq;
    if (!row.bank.is_open()) continue;  // closed: every entry conflicts
    l.conf[dir] = kNil;
    row.conf_seq[dir] = kNoSeq;
    for (Slot s = l.head[dir];
         s != kNil && (l.hit[dir] == kNil || l.conf[dir] == kNil);
         s = pool[s].next) {
      ++scan_stats_.entries_visited;
      const Request& e = pool[s].r;
      if (row.bank.open_row == static_cast<std::int64_t>(e.d.row)) {
        if (l.hit[dir] == kNil) {
          l.hit[dir] = s;
          row.hit_seq[dir] = e.seq;
        }
      } else if (l.conf[dir] == kNil) {
        l.conf[dir] = s;
        row.conf_seq[dir] = e.seq;
      }
    }
  }
}

Controller::Slot Controller::find_write(unsigned flat, Addr addr) const {
  // Same line => same bank FIFO (the invariant the merge/forward scans and
  // the remap policy's idle-bank rule keep), so one FIFO scan decides.
  for (Slot s = links_[flat].head[1]; s != kNil; s = pool_[1][s].next)
    if (line_base(pool_[1][s].r.addr) == line_base(addr)) return s;
  return kNil;
}

void Controller::close_bank(unsigned flat, Cycle now) {
  rows_[flat].bank.precharge(now, timings_.tRP);
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
  reclassify(flat);
  refold_group(group_of(flat));
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
  const Slot same_line = find_write(flat, addr);
  if (is_write) {
    if (q_size_[1] >= wq_size_) return false;
    // Write merging: a newer write to the same line supersedes the queued
    // one. The superseded write completes (exactly once) here; the
    // surviving entry carries the new tag and completes when it issues,
    // so each logical write is counted and completed exactly once.
    if (same_line != kNil) {
      Request& w = pool_[1][same_line].r;
      ++stats_.writes_enqueued;
      ++stats_.writes_completed;
      completions_.push_back({w.tag, w.addr, true, w.arrival, now});
      w.tag = tag;
      w.arrival = now;
      return true;
    }
    ++next_seq_;
    push_entry(1, flat, e);
    ++stats_.writes_enqueued;
    observe_event_candidate(entry_event_bound(e, true));
    // Crossing the drain watermark flips the next tick into write
    // service, making every queued write column a candidate.
    if (drain_flip_pending()) observe_event_candidate(now);
    return true;
  }
  if (q_size_[0] >= rq_size_) return false;
  // Write forwarding: serve the read from the pending write data. The
  // read completes here and never enters the read queue, so it does not
  // count as enqueued.
  if (same_line != kNil) {
    ++stats_.write_forwards;
    ++stats_.reads_completed;
    const Cycle finish = now + timings_.tCL;
    stats_.total_read_latency += finish - now;
    completions_.push_back({tag, addr, false, now, finish});
    return true;
  }
  ++next_seq_;
  push_entry(0, flat, e);
  ++stats_.reads_enqueued;
  observe_event_candidate(entry_event_bound(e, false));
  return true;
}

bool Controller::has_queued_write_to_line(Addr addr) const {
  return find_write(map_addr(addr).flat_bank(geometry_), addr) != kNil;
}

// ------------------------------------------------------- command issue

void Controller::apply_write_to_read_penalty(const Request& e,
                                             Cycle data_end) {
  // After write data ends, reads to the same rank must wait tWTR_S/L.
  // Every bank of a group rises to the same floor, so the group's read
  // bound rises to it too.
  for (unsigned bg = 0; bg < geometry_.bank_groups; ++bg) {
    const unsigned wtr =
        bg == e.d.bank_group ? timings_.tWTR_L : timings_.tWTR_S;
    Cycle& group_read = group_[e.d.rank * geometry_.bank_groups + bg].col[0];
    group_read = std::max(group_read, data_end + wtr);
    for (unsigned b = 0; b < geometry_.banks_per_group; ++b) {
      Bank& bank = rows_[e.d.rank * geometry_.banks_per_rank() +
                         bg * geometry_.banks_per_group + b]
                       .bank;
      bank.next_read = std::max(bank.next_read, data_end + wtr);
    }
  }
}

void Controller::issue_column(unsigned flat, unsigned dir, Cycle now) {
  const bool is_write = dir == 1;
  std::vector<Node>& pool = pool_[dir];
  BankRow& row = rows_[flat];
  BankLinks& l = links_[flat];
  const Slot s = l.hit[dir];
  const Request e = pool[s].r;
  // The bank's next row hit, if any, is younger than the issued one.
  Slot hit = pool[s].next;
  while (hit != kNil && pool[hit].r.d.row != e.d.row) {
    ++scan_stats_.entries_visited;
    hit = pool[hit].next;
  }
  l.hit[dir] = hit;
  row.hit_seq[dir] = hit != kNil ? pool[hit].r.seq : kNoSeq;
  const Slot prev = pool[s].prev, next = pool[s].next;
  (prev != kNil ? pool[prev].next : l.head[dir]) = next;
  (next != kNil ? pool[next].prev : l.tail[dir]) = prev;
  pool[s].next = free_[dir];
  free_[dir] = s;
  --q_size_[dir];

  Bank& bank = row.bank;
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
  prime_col_floors();

  if (is_write) {
    bank.next_precharge =
        std::max(bank.next_precharge, data_end + timings_.tWR);
    apply_write_to_read_penalty(e, data_end);
    ++stats_.writes_completed;
    completions_.push_back({e.tag, e.addr, true, e.arrival, data_end});
  } else {
    bank.next_precharge = std::max(bank.next_precharge, now + timings_.tRTP);
    inflight_reads_.push_back({e, data_end});
    inflight_min_finish_ = std::min(inflight_min_finish_, data_end);
  }
  refold_group(group_of(flat));
}

void Controller::activate(unsigned flat, unsigned dir, Cycle now) {
  Request& e = pool_[dir][links_[flat].head[dir]].r;
  rows_[flat].bank.activate(e.d.row, now, timings_.tRCD, timings_.tRAS);
  RankState& rank = ranks_[e.d.rank];
  if (rank.acts == 4)
    std::copy(rank.act_window + 1, rank.act_window + 4, rank.act_window);
  else
    ++rank.acts;
  rank.act_window[rank.acts - 1] = now;
  rank.last_act = now;
  rank.have_last_act = true;
  rank.last_act_bg = e.d.bank_group;
  prime_act_floors(e.d.rank);
  e.activated_for = true;
  ++stats_.activates;
  if (power_on_) {
    ++window_counts_[e.d.rank].act;
    ++bank_activity_[flat];
  }
  if (observer_) observer_->on_activate(e.d, now);
  reclassify(flat);
  refold_group(group_of(flat));
}

bool Controller::handle_refresh(Cycle now) {
  const unsigned bpr = geometry_.banks_per_rank();
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    RankState& rank = ranks_[r];
    if (!rank.refresh_pending) {
      if (now >= rank.next_refresh_due) {
        rank.refresh_pending = true;
        prime_act_floors(r);
      }
      continue;
    }
    // Precharge all open banks in the rank, then refresh.
    bool all_closed = true;
    for (unsigned b = 0; b < bpr; ++b) {
      const unsigned flat = r * bpr + b;
      if (rows_[flat].bank.is_open()) {
        all_closed = false;
        if (now >= rows_[flat].bank.next_precharge) {
          close_bank(flat, now);
          return true;
        }
      }
    }
    if (all_closed) {
      bool ready = true;
      for (unsigned b = 0; b < bpr; ++b) {
        if (now < rows_[r * bpr + b].bank.next_activate) {
          ready = false;
          break;
        }
      }
      if (ready) {
        for (unsigned b = 0; b < bpr; ++b) {
          Bank& bank = rows_[r * bpr + b].bank;
          bank.next_activate = std::max(bank.next_activate, now + timings_.tRFC);
        }
        for (unsigned bg = 0; bg < geometry_.bank_groups; ++bg)
          refold_group(r * geometry_.bank_groups + bg);
        rank.refresh_pending = false;
        prime_act_floors(r);
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

// ------------------------------------------------- the scheduling table

void Controller::prime_col_floors() {
  // Column-to-column spacing (tCCD_S/tCCD_L) against the last column:
  // tCCD_L binds only the last column's own (rank, bank group).
  Cycle ccd_same = 0, ccd_diff = 0;
  if (have_last_col_) {
    ccd_same = last_col_cmd_ + timings_.tCCD_L;
    ccd_diff = last_col_cmd_ + timings_.tCCD_S;
  }
  const unsigned bgs = geometry_.bank_groups;
  const unsigned last_group = last_col_rank_ * bgs + last_col_bg_;
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    Cycle bus[2];
    for (unsigned dir = 0; dir < 2; ++dir) {
      const bool is_write = dir == 1;
      // Data-bus availability, including direction/rank turnaround: data
      // starts `lat` after the command, so the command may go `lat`
      // before the bus frees.
      Cycle bus_ready = bus_free_at_;
      if (bus_free_at_ > 0 &&
          (bus_last_was_write_ != is_write || bus_last_rank_ != r))
        bus_ready += timings_.turnaround;
      const unsigned lat = is_write ? timings_.tCWL : timings_.tCL;
      bus[dir] = bus_ready > lat ? bus_ready - lat : 0;
    }
    for (unsigned g = r * bgs; g < (r + 1) * bgs; ++g) {
      const Cycle ccd = g == last_group ? ccd_same : ccd_diff;
      floors_[g].col[0] = std::max(ccd, bus[0]);
      floors_[g].col[1] = std::max(ccd, bus[1]);
    }
  }
}

void Controller::prime_act_floors(unsigned rank) {
  const RankState& rs = ranks_[rank];
  // A refresh-gated rank is woken by the refresh events themselves.
  Cycle same = kNoEvent, diff = kNoEvent;
  if (!rs.refresh_pending) {
    same = diff = rs.acts == 4 ? rs.act_window[0] + timings_.tFAW : 0;
    if (rs.have_last_act) {
      same = std::max(same, rs.last_act + timings_.tRRD_L);
      diff = std::max(diff, rs.last_act + timings_.tRRD_S);
    }
  }
  const unsigned bgs = geometry_.bank_groups;
  for (unsigned bg = 0; bg < bgs; ++bg)
    floors_[rank * bgs + bg].act = bg == rs.last_act_bg ? same : diff;
}

void Controller::prime_floors() {
  prime_col_floors();
  for (unsigned r = 0; r < geometry_.ranks; ++r) prime_act_floors(r);
}

void Controller::fold_bank(unsigned flat) {
  const BankRow& row = rows_[flat];
  const Bank& b = row.bank;
  GroupBounds& gb = group_[group_of(flat)];
  if (row.hit_seq[0] != kNoSeq) gb.col[0] = std::min(gb.col[0], b.next_read);
  if (row.hit_seq[1] != kNoSeq) gb.col[1] = std::min(gb.col[1], b.next_write);
  // Some direction has a conflict (every entry of a closed bank is one).
  if ((row.conf_seq[0] & row.conf_seq[1]) == kNoSeq) return;
  if (b.is_open())
    gb.pre = std::min(gb.pre, b.next_precharge);
  else
    gb.act = std::min(gb.act, b.next_activate);
}

void Controller::refold_group(unsigned g) {
  group_[g] = GroupBounds{};
  const unsigned first = g * geometry_.banks_per_group;
  for (unsigned b = 0; b < geometry_.banks_per_group; ++b) fold_bank(first + b);
}

// Per (bank, direction) there are at most two candidates — the oldest row
// hit (a column; every row hit of a bank shares its timing) and the oldest
// other entry (a PRE while open, an ACT while closed) — so the winner of
// each class is the minimum seq over allowed banks: exactly the entry a
// front-to-back walk of one global arrival-ordered deque would pick. A
// group whose bound (bank-level minimum, then its floor) lies after `now`
// holds no allowed candidate and is skipped with one comparison.

Controller::Pick Controller::pick_column(unsigned dir, Cycle now) {
  Pick best;
  const unsigned bpg = geometry_.banks_per_group;
  for (unsigned g = 0; g < group_.size(); ++g) {
    ++scan_stats_.entries_visited;
    const Floors& f = floors_[g];
    if (now < std::max(group_[g].col[dir], f.col[dir])) continue;
    for (unsigned flat = g * bpg; flat < (g + 1) * bpg; ++flat) {
      ++scan_stats_.entries_visited;
      const BankRow& row = rows_[flat];
      const Cycle ready = dir == 1 ? row.bank.next_write : row.bank.next_read;
      if (row.hit_seq[dir] < best.seq && now >= std::max(ready, f.col[dir]))
        best = {row.hit_seq[dir], flat};
    }
  }
  return best;
}

void Controller::pick_prep(Cycle now, Pick (&best)[2]) {
  const unsigned bpg = geometry_.banks_per_group;
  for (unsigned g = 0; g < group_.size(); ++g) {
    ++scan_stats_.entries_visited;
    const Floors& f = floors_[g];
    const GroupBounds& gb = group_[g];
    if (now < std::max(gb.act, f.act) && now < gb.pre) continue;
    for (unsigned flat = g * bpg; flat < (g + 1) * bpg; ++flat) {
      ++scan_stats_.entries_visited;
      const BankRow& row = rows_[flat];
      const bool open = row.bank.is_open();
      if (now < (open ? row.bank.next_precharge
                      : std::max(row.bank.next_activate, f.act)))
        continue;
      for (unsigned dir = 0; dir < 2; ++dir)
        if (row.conf_seq[dir] < best[dir].seq)
          best[dir] = {row.conf_seq[dir], flat};
    }
  }
}

bool Controller::try_column(unsigned dir, Cycle now) {
  ++scan_stats_.issue_scans;
  scan_stats_.queue_depth_sum += q_size_[dir];
  const Pick p = pick_column(dir, now);
  if (p.seq == kNoSeq) return false;
  issue_column(p.flat, dir, now);
  ++scan_stats_.commands_issued;
  return true;
}

bool Controller::try_prep(unsigned first, Cycle now) {
  Pick best[2];
  pick_prep(now, best);
  // Accounted as the per-direction scans it replaces: the second
  // direction counts only when the first had nothing to issue.
  for (const unsigned dir : {first, 1 - first}) {
    ++scan_stats_.issue_scans;
    scan_stats_.queue_depth_sum += q_size_[dir];
    const Pick& p = best[dir];
    if (p.seq == kNoSeq) continue;
    if (rows_[p.flat].bank.is_open())
      close_bank(p.flat, now);
    else
      activate(p.flat, dir, now);
    ++scan_stats_.commands_issued;
    return true;
  }
  return false;
}

Cycle Controller::frfcfs_command_bound(Cycle floor) const {
  // Write row hits schedule nothing while writes are not being served;
  // the transitions into write service (a drain flip, the last queued
  // read issuing) are events of their own.
  const Cycle writes = serving_writes() ? 0 : kNoEvent;
  Cycle at = kNoEvent;
  for (std::size_t g = 0; g < group_.size(); ++g) {
    const GroupBounds& gb = group_[g];
    const Floors& f = floors_[g];
    at = std::min({at, std::max(gb.col[0], f.col[0]),
                   std::max({gb.col[1], f.col[1], writes}),
                   std::max(gb.act, f.act), gb.pre});
    if (at <= floor) break;  // nothing can come earlier than the floor
  }
  return at;
}

Controller::FcfsHead Controller::fcfs_head(unsigned dir) const {
  FcfsHead h;
  std::uint64_t oldest = kNoSeq;
  for (unsigned flat = 0; flat < rows_.size(); ++flat) {
    const BankRow& row = rows_[flat];
    const std::uint64_t seq = std::min(row.hit_seq[dir], row.conf_seq[dir]);
    if (seq < oldest) {
      oldest = seq;
      h.flat = static_cast<int>(flat);
    }
  }
  if (h.flat < 0) return h;
  const unsigned flat = static_cast<unsigned>(h.flat);
  const BankRow& row = rows_[flat];
  const Floors& f = floors_[group_of(flat)];
  if (!row.bank.is_open()) {
    h.at = std::max(row.bank.next_activate, f.act);
  } else if (row.hit_seq[dir] < row.conf_seq[dir]) {
    h.column = true;
    h.at = std::max(dir == 1 ? row.bank.next_write : row.bank.next_read,
                    f.col[dir]);
  } else {
    h.at = row.bank.next_precharge;
  }
  return h;
}

Cycle Controller::fcfs_command_bound(const FcfsHead (&heads)[2]) const {
  Cycle at = heads[0].at;
  if (!heads[1].column || serving_writes()) at = std::min(at, heads[1].at);
  return at;
}

Cycle Controller::refresh_bound() const {
  Cycle next = kNoEvent;
  const unsigned bpr = geometry_.banks_per_rank();
  for (unsigned r = 0; r < geometry_.ranks; ++r) {
    const RankState& rank = ranks_[r];
    if (!rank.refresh_pending) {
      next = std::min(next, rank.next_refresh_due);
      continue;
    }
    // Refresh in progress: open banks precharge as they become eligible;
    // once all are closed the refresh fires when every bank is activatable.
    bool all_closed = true;
    Cycle ready = 0;
    for (unsigned b = 0; b < bpr; ++b) {
      const Bank& bank = rows_[r * bpr + b].bank;
      if (bank.is_open()) {
        all_closed = false;
        next = std::min(next, bank.next_precharge);
      } else {
        ready = std::max(ready, bank.next_activate);
      }
    }
    if (all_closed) next = std::min(next, ready);
  }
  return next;
}

Cycle Controller::event_bound(Cycle cmd, Cycle floor) const {
  // The write-drain hysteresis flip is itself a state change the next
  // tick performs (even though no command issues that cycle), and it
  // changes which columns are servable right after.
  if (drain_flip_pending()) return floor;
  Cycle next = kNoEvent;
  if (cmd != kNoEvent) {
    next = std::max(cmd, floor);
    // While the thermal throttle is engaged, tick() only issues on cycles
    // divisible by the throttle period, so command bounds round up.
    // Retirement, refresh and the window boundary stay unrounded; the
    // boundary covers disengagement, when a command becomes issuable
    // before its rounded bound.
    if (throttle_engaged_)
      next = (next + throttle_period_ - 1) / throttle_period_ *
             throttle_period_;
  }
  // With a policy enabled, the accounting-window boundary is a state
  // change in its own right (throttle trip/release, remap swap). With
  // policies off, boundaries are lazy pure accounting.
  if (any_policy_)
    next = std::min(
        next, std::max(power_window_start_ + power_cfg_.window_cycles, floor));
  next = std::min(next, std::max(inflight_min_finish_, floor));
  return std::min(next, std::max(refresh_bound(), floor));
}

Cycle Controller::entry_event_bound(const Request& e, bool is_write) const {
  const unsigned flat = e.d.flat_bank(geometry_);
  const Bank& bank = rows_[flat].bank;
  const Floors& f = floors_[group_of(flat)];
  if (bank.open_row == static_cast<std::int64_t>(e.d.row)) {
    // A write row hit is only a candidate while writes are being served.
    if (is_write && !serving_writes()) return kNoEvent;
    return std::max(is_write ? bank.next_write : bank.next_read,
                    f.col[is_write ? 1 : 0]);
  }
  if (bank.is_open()) return bank.next_precharge;  // row conflict
  return std::max(bank.next_activate, f.act);      // closed
}

void Controller::rebuild_next_event() {
  // The same bound a tick leaves, unclamped: next_event_cycle() clamps to
  // the query cycle.
  prime_floors();
  Cycle cmd;
  if (policy_ == SchedulingPolicy::kFcfs) {
    const FcfsHead heads[2] = {fcfs_head(0), fcfs_head(1)};
    cmd = fcfs_command_bound(heads);
  } else {
    cmd = frfcfs_command_bound(0);
  }
  next_event_ = event_bound(cmd, 0);
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

  // One command slot per cycle: refresh first. Thermal throttle: while
  // engaged, command issue is gated to one cycle in `throttle_period`
  // (refresh is exempt — retention is not negotiable).
  const bool may_issue = !handle_refresh(now) &&
                         (!throttle_engaged_ || now % throttle_period_ == 0);
  if (policy_ == SchedulingPolicy::kFcfs) {
    tick_fcfs(now, may_issue);
    return;
  }
  if (may_issue) {
    // Columns first (writes, then opportunistic reads, while serving
    // writes), then bank prep; the idle read path preps writes in the
    // background.
    if (serving_writes())
      try_column(1, now) || try_column(0, now) || try_prep(1, now);
    else
      try_column(0, now) || try_prep(0, now);
  }
  // The bound for the post-tick state: the earliest cycle > now whose
  // tick could change anything. The group bounds and floors are already
  // current, so this is one max/min per group.
  next_event_ = event_bound(frfcfs_command_bound(now + 1), now + 1);
}

void Controller::tick_fcfs(Cycle now, bool may_issue) {
  // Strict FCFS considers only each direction's globally oldest entry.
  const FcfsHead heads[2] = {fcfs_head(0), fcfs_head(1)};
  bool issued = false;
  if (may_issue) {
    const auto try_head = [&](unsigned dir, bool column) {
      ++scan_stats_.issue_scans;
      scan_stats_.queue_depth_sum += q_size_[dir];
      scan_stats_.entries_visited += rows_.size();
      const FcfsHead& h = heads[dir];
      if (h.flat < 0 || h.column != column || now < h.at) return false;
      const unsigned flat = static_cast<unsigned>(h.flat);
      if (column)
        issue_column(flat, dir, now);
      else if (!rows_[flat].bank.is_open())
        activate(flat, dir, now);
      else
        close_bank(flat, now);
      ++scan_stats_.commands_issued;
      return true;
    };
    issued = serving_writes()
                 ? try_head(1, true) || try_head(0, true) ||
                       try_head(1, false) || try_head(0, false)
                 : try_head(0, true) || try_head(0, false) ||
                       try_head(1, false);
  }
  if (!issued) {
    next_event_ = event_bound(fcfs_command_bound(heads), now + 1);
    return;
  }
  const FcfsHead after[2] = {fcfs_head(0), fcfs_head(1)};
  next_event_ = event_bound(fcfs_command_bound(after), now + 1);
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
  // Hottest and coolest rank by full-precision Q32 temperature; ties go
  // to the lowest rank index (deterministic).
  unsigned hot = 0, cold = 0;
  for (unsigned r = 1; r < geometry_.ranks; ++r) {
    if (thermal_[r].temp_q32() > thermal_[hot].temp_q32()) hot = r;
    if (thermal_[r].temp_q32() < thermal_[cold].temp_q32()) cold = r;
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
  int src = -1;
  std::uint64_t src_activity = 0;
  for (unsigned b = 0; b < bpr; ++b) {
    const unsigned flat = hot * bpr + b;
    if (!bank_idle(flat)) continue;
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
    if (!bank_idle(flat)) continue;
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
      s.i64(thermal_[r].temp_q32());
      s.i64(thermal_[r].peak_q32());
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
  s.u64(rows_.size());
  for (const BankRow& row : rows_) {
    const Bank& b = row.bank;
    s.i64(b.open_row);
    s.u64(b.next_activate);
    s.u64(b.next_read);
    s.u64(b.next_write);
    s.u64(b.next_precharge);
  }
  s.u64(ranks_.size());
  for (const RankState& r : ranks_) {
    s.u64(r.acts);
    for (unsigned i = 0; i < r.acts; ++i) s.u64(r.act_window[i]);
    s.u64(r.last_act);
    s.b(r.have_last_act);
    s.u32(r.last_act_bg);
    s.u64(r.next_refresh_due);
    s.b(r.refresh_pending);
  }
  for (unsigned dir = 0; dir < 2; ++dir) {
    for (const BankLinks& l : links_) {
      std::uint64_t n = 0;
      for (Slot e = l.head[dir]; e != kNil; e = pool_[dir][e].next) ++n;
      s.u64(n);
      for (Slot e = l.head[dir]; e != kNil; e = pool_[dir][e].next)
        save_request(s, pool_[dir][e].r);
    }
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
      const std::int64_t t_q32 = s.i64();
      const std::int64_t peak_q32 = s.i64();
      thermal_[r].set_state(t_q32, peak_q32);
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
  if (s.u64() != rows_.size())
    throw std::runtime_error("controller bank count mismatch");
  for (BankRow& row : rows_) {
    Bank& b = row.bank;
    b.open_row = s.i64();
    b.next_activate = s.u64();
    b.next_read = s.u64();
    b.next_write = s.u64();
    b.next_precharge = s.u64();
  }
  if (s.u64() != ranks_.size())
    throw std::runtime_error("controller rank count mismatch");
  for (RankState& r : ranks_) {
    const std::size_t acts = s.count(8);
    if (acts > 4) throw std::runtime_error("controller tFAW window too long");
    r.acts = static_cast<unsigned>(acts);
    for (unsigned i = 0; i < r.acts; ++i) r.act_window[i] = s.u64();
    r.last_act = s.u64();
    r.have_last_act = s.b();
    r.last_act_bg = s.u32();
    r.next_refresh_due = s.u64();
    r.refresh_pending = s.b();
  }
  reset_queues();
  for (unsigned dir = 0; dir < 2; ++dir) {
    for (unsigned flat = 0; flat < rows_.size(); ++flat) {
      const std::size_t n = s.count(33);
      if (q_size_[dir] + n > pool_[dir].size())
        throw std::runtime_error("controller queue exceeds its size");
      for (std::size_t i = 0; i < n; ++i) {
        const Request e = load_request(s);
        if (e.d.flat_bank(geometry_) != flat)
          throw std::runtime_error("controller request in the wrong bank");
        push_entry(dir, flat, e);
      }
    }
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

  rebuild_next_event();
}

}  // namespace secddr::dram
