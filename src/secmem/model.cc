#include "secmem/model.h"

#include <algorithm>
#include <cassert>

namespace secddr::secmem {

SecurityEngine::SecurityEngine(const SecurityParams& params,
                               const MetadataLayout& layout,
                               dram::DramSystem& dram)
    : params_(params),
      layout_(layout),
      dram_(dram),
      meta_cache_(params.metadata_cache_bytes, params.metadata_cache_assoc) {}

void SecurityEngine::issue_dram(Addr addr, bool is_write, std::uint64_t tag) {
  // Preserve ordering: if anything is already queued, queue behind it.
  // (So a direct enqueue happens only with no line tracked in
  // deferred_lines_.)
  if (!issue_q_.empty() || !dram_.enqueue(addr, is_write, tag))
    defer({addr, is_write, tag});
}

void SecurityEngine::defer(const PendingIssue& p) {
  issue_q_.push_back(p);
  update_line(deferred_lines_[line_base(p.addr)], [&](DeferredLine& l) {
    if (p.is_write) {
      ++l.writes_pushed;
      return;
    }
    ++deferred_reads_;
    if (l.reads++ == 0) l.in_dram = dram_.has_queued_write_to_line(p.addr);
    l.last_read_stamp = l.writes_pushed;
  });
}

void SecurityEngine::pop_deferred() {
  const PendingIssue& p = issue_q_.front();
  const auto it = deferred_lines_.find(line_base(p.addr));
  assert(it != deferred_lines_.end());
  update_line(it->second, [&](DeferredLine& l) {
    if (p.is_write) {
      ++l.writes_popped;
      l.in_dram = true;  // just enqueued (or merged into a queued write)
    } else {
      --l.reads;
      --deferred_reads_;
    }
  });
  if (it->second.reads == 0 &&
      it->second.writes_popped == it->second.writes_pushed)
    deferred_lines_.erase(it);
  issue_q_.pop_front();
}

void SecurityEngine::on_write_left_dram(Addr addr) {
  // A write leaves the DRAM queue only by issuing, and issues and merges
  // both complete, so draining that completion is where in_dram can turn
  // false. ready_bound() returns before reading in_dram while the
  // completion is undrained.
  if (deferred_reads_ == 0) return;
  const auto it = deferred_lines_.find(line_base(addr));
  if (it == deferred_lines_.end() || it->second.reads == 0) return;
  update_line(it->second, [&](DeferredLine& l) {
    l.in_dram = dram_.has_queued_write_to_line(addr);
  });
}

void SecurityEngine::writeback_victim(const SetAssocCache::Result& victim) {
  if (victim.evicted && victim.victim_dirty) {
    ++stats_.meta_writebacks;
    issue_dram(victim.victim_addr, true,
               make_tag(TagKind::kMetaWriteback, 0));
  }
}

void SecurityEngine::request_meta_line(Txn& txn, std::uint64_t txn_id,
                                       Addr line, Role role, Cycle now) {
  const bool hit = meta_cache_.lookup(line);
  if (hit) {
    if (txn.is_write) meta_cache_.mark_dirty(line);
    switch (role) {
      case Role::kCounter:
        txn.counter_done = now;
        break;
      case Role::kMacLine:
        txn.mac_line_done = now;
        break;
      case Role::kTreeNode:
        break;  // cached node: trusted, walk already terminated by caller
    }
    return;
  }

  // Miss: join (or start) an outstanding fetch for this line.
  switch (role) {
    case Role::kCounter:
      txn.counter_pending = true;
      break;
    case Role::kMacLine:
      txn.mac_line_pending = true;
      break;
    case Role::kTreeNode:
      txn.tree_walked = true;
      break;
  }
  ++txn.meta_outstanding;
  auto [it, inserted] = meta_fetches_.try_emplace(line);
  it->second.waiters.emplace_back(txn_id, role);
  if (inserted) {
    switch (role) {
      case Role::kCounter:
        ++stats_.counter_fetches;
        break;
      case Role::kMacLine:
        ++stats_.mac_line_fetches;
        break;
      case Role::kTreeNode:
        ++stats_.tree_node_fetches;
        break;
    }
    issue_dram(line, false, make_tag(TagKind::kMetaFetch, line));
  }
}

void SecurityEngine::gather_read_needs(Txn& txn, std::uint64_t txn_id,
                                       Cycle now) {
  const bool tree = params_.rap == Rap::kIntegrityTree;

  if (params_.enc == Encryption::kCounterMode) {
    const Addr ctr = layout_.counter_line_addr(txn.addr);
    const bool ctr_cached = meta_cache_.probe(ctr);
    request_meta_line(txn, txn_id, ctr, Role::kCounter, now);
    // Counter-tree verification: only needed when the counter line itself
    // was not already trusted on chip.
    if (tree && !params_.hash_tree_over_macs && !ctr_cached) {
      for (unsigned level = 1; level <= layout_.tree_levels(); ++level) {
        const Addr node = layout_.tree_node_addr(level, txn.addr);
        if (meta_cache_.probe(node)) {
          meta_cache_.lookup(node);  // count the terminating hit
          break;
        }
        request_meta_line(txn, txn_id, node, Role::kTreeNode, now);
      }
    }
  }

  if (!params_.macs_in_ecc && params_.verify_mac) {
    const Addr mac = layout_.mac_line_addr(txn.addr);
    const bool mac_cached = meta_cache_.probe(mac);
    request_meta_line(txn, txn_id, mac, Role::kMacLine, now);
    if (tree && params_.hash_tree_over_macs && !mac_cached) {
      for (unsigned level = 1; level <= layout_.tree_levels(); ++level) {
        const Addr node = layout_.tree_node_addr(level, txn.addr);
        if (meta_cache_.probe(node)) {
          meta_cache_.lookup(node);
          break;
        }
        request_meta_line(txn, txn_id, node, Role::kTreeNode, now);
      }
    }
  }

  if (txn.tree_walked) ++stats_.reads_with_tree_walk;
}

void SecurityEngine::gather_write_needs(Txn& txn, std::uint64_t txn_id,
                                        Cycle now) {
  const bool tree = params_.rap == Rap::kIntegrityTree;

  if (params_.enc == Encryption::kCounterMode) {
    // Counter increment: read-modify-write of the counter line.
    request_meta_line(txn, txn_id, layout_.counter_line_addr(txn.addr),
                      Role::kCounter, now);
  }
  if (!params_.macs_in_ecc && params_.verify_mac) {
    request_meta_line(txn, txn_id, layout_.mac_line_addr(txn.addr),
                      Role::kMacLine, now);
  }
  if (tree) {
    // A write updates every tree level up to the on-chip root: present
    // nodes are dirtied in place, absent nodes are fetched (RMW).
    for (unsigned level = 1; level <= layout_.tree_levels(); ++level) {
      const Addr node = layout_.tree_node_addr(level, txn.addr);
      if (meta_cache_.lookup(node)) {
        meta_cache_.mark_dirty(node);
      } else {
        txn.tree_walked = true;
        ++txn.meta_outstanding;
        auto [it, inserted] = meta_fetches_.try_emplace(node);
        it->second.waiters.emplace_back(txn_id, Role::kTreeNode);
        if (inserted) {
          ++stats_.tree_node_fetches;
          issue_dram(node, false, make_tag(TagKind::kMetaFetch, node));
        }
      }
    }
  }
}

void SecurityEngine::start_read(Addr addr, std::uint64_t tag, Cycle now) {
  const std::uint64_t txn_id = next_txn_id_++;
  Txn& txn = txns_[txn_id];
  txn.tag = tag;
  txn.addr = addr;
  txn.is_write = false;
  txn.start = now;
  txn.data_pending = true;
  ++stats_.data_reads;
  issue_dram(addr, false, make_tag(TagKind::kDataRead, txn_id));
  gather_read_needs(txn, txn_id, now);
  maybe_finish(txn_id, now);
}

void SecurityEngine::start_write(Addr addr, Cycle now) {
  const std::uint64_t txn_id = next_txn_id_++;
  Txn& txn = txns_[txn_id];
  txn.addr = addr;
  txn.is_write = true;
  txn.start = now;
  ++stats_.data_writes;
  gather_write_needs(txn, txn_id, now);
  maybe_finish(txn_id, now);
}

Cycle SecurityEngine::read_ready_time(const Txn& txn) const {
  // Decryption path.
  Cycle t;
  if (params_.enc == Encryption::kXts) {
    t = txn.data_done + params_.aes_latency;
  } else {
    // Counter-mode: the OTP needs the counter; a cached counter lets the
    // pad precompute overlap the DRAM access.
    t = std::max(txn.data_done, txn.counter_done + params_.aes_latency);
  }

  // Integrity verification paths (never speculative, §IV-B).
  if (params_.verify_mac) {
    Cycle mac_base = txn.data_done;
    if (!params_.macs_in_ecc)
      mac_base = std::max(mac_base, txn.mac_line_done);
    t = std::max(t, mac_base + params_.mac_latency);
  }
  if (params_.rap == Rap::kIntegrityTree &&
      (txn.tree_walked || txn.counter_pending || txn.mac_line_pending ||
       txn.meta_done > txn.start)) {
    // Tree levels verify in parallel once all fetches arrive.
    t = std::max(t, txn.meta_done + params_.mac_latency);
  }
  if (params_.rap == Rap::kAuthChannel) {
    t = std::max(t, txn.data_done +
                        params_.auth_channel_macs * params_.mac_latency);
  }
  return t;
}

void SecurityEngine::maybe_finish(std::uint64_t txn_id, Cycle now) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  Txn& txn = it->second;
  if (txn.meta_outstanding > 0) return;

  if (txn.is_write) {
    if (!txn.write_data_issued) {
      txn.write_data_issued = true;
      issue_dram(txn.addr, true, make_tag(TagKind::kDataWrite, txn_id));
      // Posted: the transaction is complete once the write is handed to
      // the controller; metadata dirtiness already recorded.
      txns_.erase(it);
    }
    return;
  }
  if (txn.data_pending) return;
  ready_.push_back({txn.tag, std::max(now, read_ready_time(txn))});
  txns_.erase(it);
}

void SecurityEngine::on_meta_arrival(Addr line, Cycle finish, Cycle now) {
  auto fit = meta_fetches_.find(line);
  if (fit == meta_fetches_.end()) return;
  const auto waiters = std::move(fit->second.waiters);
  meta_fetches_.erase(fit);

  const auto victim = meta_cache_.install(line, false);
  writeback_victim(victim);

  for (const auto& [txn_id, role] : waiters) {
    auto it = txns_.find(txn_id);
    if (it == txns_.end()) continue;
    Txn& txn = it->second;
    assert(txn.meta_outstanding > 0);
    --txn.meta_outstanding;
    // Stamp done times with the DRAM completion's finish cycle (like the
    // data path does with data_done), not the engine tick that happened
    // to observe it, so verify latency is independent of tick granularity.
    txn.meta_done = std::max(txn.meta_done, finish);
    switch (role) {
      case Role::kCounter:
        txn.counter_done = finish;
        break;
      case Role::kMacLine:
        txn.mac_line_done = finish;
        break;
      case Role::kTreeNode:
        break;
    }
    if (txn.is_write) meta_cache_.mark_dirty(line);
    maybe_finish(txn_id, now);
  }
}

void SecurityEngine::tick(Cycle now) {
  // Retry deferred issues in order.
  while (!issue_q_.empty()) {
    const auto& p = issue_q_.front();
    if (!dram_.enqueue(p.addr, p.is_write, p.tag)) break;
    pop_deferred();
  }

  for (const auto& c : dram_.pending_completions()) {
    const auto kind = static_cast<TagKind>(c.tag >> 56);
    const std::uint64_t id = c.tag & ((1ull << 56) - 1);
    switch (kind) {
      case TagKind::kDataRead: {
        auto it = txns_.find(id);
        if (it == txns_.end()) break;
        it->second.data_pending = false;
        it->second.data_done = c.finish;
        maybe_finish(id, now);
        break;
      }
      case TagKind::kMetaFetch:
        on_meta_arrival(static_cast<Addr>(id), c.finish, now);
        break;
      case TagKind::kDataWrite:
      case TagKind::kMetaWriteback:
        on_write_left_dram(c.addr);  // posted: no transaction to finish
        break;
    }
  }
  dram_.clear_completions();
}

void SecurityEngine::tick_until(Cycle from, Cycle to) {
  Cycle t = from;
  while (t < to) {
    // The serial event-driven skip, applied channel-locally: when the
    // engine has no self-driven event and no completion is waiting to
    // surface, every core tick up to the DRAM's next event advances only
    // the clocks. Exactness is inherited from idle_core_cycles().
    if (next_event_cycle(t) == kNoEvent && !dram_.has_undrained_completions()) {
      const Cycle idle = dram_.idle_core_cycles();
      if (idle > 0) {
        const Cycle span = std::min(idle, to - t);
        dram_.advance_idle_core_cycles(span);
        t += span;
        continue;
      }
    }
    ++t;
    dram_.tick_core_cycle();
    tick(t);
    // Window contract: the caller sized `to` with ready_bound(), so no
    // fill may surface before the final tick (the backend drains ready()
    // only at epoch boundaries; an early push would reorder fills).
    assert((ready_.empty() || t == to) &&
           "read became ready before the epoch horizon");
  }
}

Cycle SecurityEngine::ready_bound(Cycle now) const {
  // A buffered completion surfaces (and can finish a read) next tick.
  if (dram_.has_undrained_completions()) return now + 1;
  Cycle bound = kNoEvent;
  const Cycle inflight = dram_.inflight_read_finish();
  if (inflight != kNoEvent)
    bound = now + dram_.core_cycles_until_mem(inflight);
  if (dram_.queued_reads() > 0 || deferred_reads_ > 0) {
    // A queued read issues no earlier than the current memory cycle and
    // its data arrives tCL later at best (bursts only push it out); a
    // deferred read enqueues at the next tick at the earliest, with the
    // same floor — unless write data can forward it, which completes at
    // enqueue and surfaces one tick later (>= now + 2: enqueue happens
    // inside tick now+1 at the earliest). A deferred write ahead of the
    // read lands in the queue first and then forwards it (same line,
    // FIFO retry order).
    const Cycle column = now + dram_.core_cycles_until_mem(
                                   dram_.memory_cycle() + dram_.timings().tCL);
    bound = std::min(bound, forwardable_lines_ > 0 ? std::min(column, now + 2)
                                                   : column);
  }
  return bound;
}

void SecurityEngine::save(serial::Sink& s) const {
  meta_cache_.save(s);

  std::vector<std::uint64_t> txn_ids;
  txn_ids.reserve(txns_.size());
  for (const auto& [id, txn] : txns_) txn_ids.push_back(id);
  std::sort(txn_ids.begin(), txn_ids.end());
  s.u64(txn_ids.size());
  for (const std::uint64_t id : txn_ids) {
    const Txn& t = txns_.at(id);
    s.u64(id);
    s.u64(t.tag);
    s.u64(t.addr);
    s.b(t.is_write);
    s.u64(t.start);
    s.b(t.data_pending);
    s.u64(t.data_done);
    s.u32(t.meta_outstanding);
    s.u64(t.meta_done);
    s.b(t.counter_pending);
    s.u64(t.counter_done);
    s.b(t.mac_line_pending);
    s.u64(t.mac_line_done);
    s.b(t.tree_walked);
    s.b(t.write_data_issued);
  }
  s.u64(next_txn_id_);

  std::vector<Addr> fetch_lines;
  fetch_lines.reserve(meta_fetches_.size());
  for (const auto& [line, f] : meta_fetches_) fetch_lines.push_back(line);
  std::sort(fetch_lines.begin(), fetch_lines.end());
  s.u64(fetch_lines.size());
  for (const Addr line : fetch_lines) {
    const MetaFetch& f = meta_fetches_.at(line);
    s.u64(line);
    s.u64(f.waiters.size());
    for (const auto& [txn_id, role] : f.waiters) {
      s.u64(txn_id);
      s.u8(static_cast<std::uint8_t>(role));
    }
  }

  s.u64(issue_q_.size());
  for (const PendingIssue& p : issue_q_) {
    s.u64(p.addr);
    s.b(p.is_write);
    s.u64(p.tag);
  }
  s.u64(ready_.size());
  for (const ReadReady& r : ready_) {
    s.u64(r.tag);
    s.u64(r.at);
  }
  serial::put(s, stats_);
}

void SecurityEngine::load(serial::Source& s) {
  meta_cache_.load(s);

  txns_.clear();
  const std::size_t ntxn = s.count(8);
  for (std::size_t i = 0; i < ntxn; ++i) {
    const std::uint64_t id = s.u64();
    Txn& t = txns_[id];
    t.tag = s.u64();
    t.addr = s.u64();
    t.is_write = s.b();
    t.start = s.u64();
    t.data_pending = s.b();
    t.data_done = s.u64();
    t.meta_outstanding = s.u32();
    t.meta_done = s.u64();
    t.counter_pending = s.b();
    t.counter_done = s.u64();
    t.mac_line_pending = s.b();
    t.mac_line_done = s.u64();
    t.tree_walked = s.b();
    t.write_data_issued = s.b();
  }
  next_txn_id_ = s.u64();

  meta_fetches_.clear();
  const std::size_t nfetch = s.count(8);
  for (std::size_t i = 0; i < nfetch; ++i) {
    const Addr line = s.u64();
    MetaFetch& f = meta_fetches_[line];
    const std::size_t nwait = s.count(9);
    f.waiters.reserve(nwait);
    for (std::size_t w = 0; w < nwait; ++w) {
      const std::uint64_t txn_id = s.u64();
      f.waiters.emplace_back(txn_id, static_cast<Role>(s.u8()));
    }
  }

  // Replaying the pushes rebuilds the derived per-line forwarding state;
  // the owner loads the DRAM system first, so in_dram reads its queues.
  issue_q_.clear();
  deferred_lines_.clear();
  deferred_reads_ = 0;
  forwardable_lines_ = 0;
  const std::size_t nissue = s.count(17);
  for (std::size_t i = 0; i < nissue; ++i) {
    PendingIssue p;
    p.addr = s.u64();
    p.is_write = s.b();
    p.tag = s.u64();
    defer(p);
  }
  ready_.clear();
  const std::size_t nready = s.count(16);
  for (std::size_t i = 0; i < nready; ++i) {
    ReadReady r;
    r.tag = s.u64();
    r.at = s.u64();
    ready_.push_back(r);
  }
  serial::get(s, stats_);
}

}  // namespace secddr::secmem
