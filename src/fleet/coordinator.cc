#include "fleet/coordinator.h"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "fleet/checkpoint.h"
#include "fleet/shard.h"
#include "sim/trace_codec.h"

namespace secddr::fleet {

namespace {

using sim::trace_codec::crc32;

// Worker -> coordinator message types (see the wire-format comment in
// coordinator.h for the framing).
enum : std::uint8_t {
  kMsgCheckpoint = 1,  ///< node u32, phase cycle u64, generation u64
  kMsgResult = 2,      ///< node u32, serialized RunResult
  kMsgDone = 3,        ///< shard completed every node it still owned
  kMsgHeartbeat = 4,   ///< node u32, phase cycle u64
  kMsgQuarantine = 5,  ///< node u32, reason string (u64 length + bytes)
};

bool write_all_fd(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;  // coordinator went away; the worker finishes quietly
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void write_frame(int fd, const std::vector<std::uint8_t>& body) {
  const std::vector<std::uint8_t> frame = encode_frame(body);
  (void)write_all_fd(fd, frame.data(), frame.size());
}

/// Worker main: drive the shard, stream events, then report done.
[[noreturn]] void worker_main(const std::vector<NodeConfig>& configs,
                              const std::vector<unsigned>& ids,
                              const FleetOptions& opt, int fd) {
  try {
    if (!opt.chaos.empty()) chaos::arm(opt.chaos, opt.state_dir);
    ShardOptions shard_opt;
    shard_opt.checkpoint_every = opt.checkpoint_every;
    shard_opt.keep_generations = opt.keep_generations;
    shard_opt.state_dir = opt.state_dir;
    ShardDriver driver(configs, ids, shard_opt);
    ShardEvents events;
    events.on_heartbeat = [fd](unsigned node, Cycle cycle) {
      serial::Sink s;
      s.u8(kMsgHeartbeat);
      s.u32(node);
      s.u64(cycle);
      write_frame(fd, s.data());
    };
    events.on_checkpoint = [fd](unsigned node, Cycle cycle, std::uint64_t gen,
                                const std::string&) {
      if (chaos::drop_checkpoint_announce(node)) return;
      serial::Sink s;
      s.u8(kMsgCheckpoint);
      s.u32(node);
      s.u64(cycle);
      s.u64(gen);
      write_frame(fd, s.data());
    };
    events.on_result = [fd](unsigned node, const sim::RunResult& result) {
      serial::Sink s;
      s.u8(kMsgResult);
      s.u32(node);
      serial::put(s, result);
      const std::vector<std::uint8_t> frame = encode_frame(s.data());
      chaos::maybe_tear_result_frame(node, fd, frame.data(), frame.size());
      (void)write_all_fd(fd, frame.data(), frame.size());
    };
    events.on_quarantine = [fd](unsigned node, const std::string& reason) {
      serial::Sink s;
      s.u8(kMsgQuarantine);
      s.u32(node);
      s.u64(reason.size());
      s.bytes(reason.data(), reason.size());
      write_frame(fd, s.data());
    };
    driver.run(events);
    serial::Sink s;
    s.u8(kMsgDone);
    write_frame(fd, s.data());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet worker: %s\n", e.what());
    ::_exit(1);
  }
  ::_exit(0);
}

long long now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Worker {
  pid_t pid = -1;
  int fd = -1;  ///< read end of the worker's pipe
  std::vector<unsigned> node_ids;
  FrameBuffer frames;
  bool done_seen = false;
  bool alive = false;
  bool hung_kill_sent = false;  ///< watchdog SIGKILL issued, EOF pending
  unsigned failures = 0;        ///< consecutive abnormal deaths of this slot
  long long respawn_at_ms = -1; ///< pending respawn deadline; -1 = none
  long long last_frame_ms = 0;  ///< watchdog progress timestamp
  int last_active = -1;         ///< node id named by the latest frame
};

}  // namespace

const char* node_status_name(NodeStatus s) {
  switch (s) {
    case NodeStatus::kOk:
      return "ok";
    case NodeStatus::kRecovered:
      return "recovered";
    case NodeStatus::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> frame(8 + body.size());
  sim::trace_codec::put_u32(frame.data(),
                            static_cast<std::uint32_t>(body.size()));
  sim::trace_codec::put_u32(frame.data() + 4, crc32(body.data(), body.size()));
  if (!body.empty()) std::memcpy(frame.data() + 8, body.data(), body.size());
  return frame;
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameBuffer::next(std::vector<std::uint8_t>& body) {
  if (buf_.size() - off_ < 8) return false;
  const std::uint32_t len = sim::trace_codec::get_u32(buf_.data() + off_);
  if (len > kMaxFrameBytes)
    throw std::runtime_error("fleet: oversized worker frame (" +
                             std::to_string(len) + " bytes)");
  if (buf_.size() - off_ - 8 < len) return false;  // incomplete frame
  const std::uint8_t* p = buf_.data() + off_ + 8;
  if (crc32(p, len) != sim::trace_codec::get_u32(buf_.data() + off_ + 4))
    throw std::runtime_error("fleet: corrupt worker frame");
  body.assign(p, p + len);
  off_ += 8 + len;
  // Compact once the consumed prefix dominates, keeping append cheap.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  return true;
}

void finalize_aggregates(FleetResult& r) {
  r.status.resize(r.per_node.size(), NodeStatus::kOk);
  r.quarantine_reasons.resize(r.per_node.size());
  r.quarantined = 0;
  r.total_ipc = 0.0;
  r.instructions = 0;
  r.llc_demand_misses = 0;
  r.dram_reads_completed = 0;
  r.dram_writes_completed = 0;
  r.engine_meta_reads = 0;
  r.engine_meta_writebacks = 0;
  r.nodes_hit_cycle_limit = 0;
  r.ipc_hist.assign(kFleetHistBuckets, 0);
  r.latency_hist.assign(kFleetHistBuckets, 0);
  for (std::size_t i = 0; i < r.per_node.size(); ++i) {
    if (r.status[i] == NodeStatus::kQuarantined) {
      // Explicit partial result: a quarantined node contributes nothing
      // rather than contributing something wrong.
      ++r.quarantined;
      continue;
    }
    const sim::RunResult& n = r.per_node[i];
    r.total_ipc += n.total_ipc;
    for (const sim::CoreStats& c : n.cores) r.instructions += c.instructions;
    r.llc_demand_misses += n.mem.llc_demand_misses;
    r.dram_reads_completed += n.dram.reads_completed;
    r.dram_writes_completed += n.dram.writes_completed;
    r.engine_meta_reads += n.engine.meta_reads();
    r.engine_meta_writebacks += n.engine.meta_writebacks;
    if (n.hit_cycle_limit) ++r.nodes_hit_cycle_limit;
    auto bucket = [](double v, double width) {
      const double b = v / width;
      const unsigned idx = b < 0 ? 0u : static_cast<unsigned>(b);
      return idx < kFleetHistBuckets ? idx : kFleetHistBuckets - 1;
    };
    ++r.ipc_hist[bucket(n.total_ipc, kIpcBucketWidth)];
    ++r.latency_hist[bucket(n.dram.avg_read_latency(), kLatencyBucketWidth)];
  }
}

std::vector<std::uint8_t> encode_fleet(const FleetResult& r) {
  serial::Sink s;
  s.u64(r.per_node.size());
  for (std::size_t i = 0; i < r.per_node.size(); ++i) {
    const std::string& name = r.names[i];
    s.u64(name.size());
    s.bytes(name.data(), name.size());
    serial::put(s, r.per_node[i]);
    // Quarantine is part of the deterministic outcome (it changes the
    // aggregates); ok-vs-recovered is crash history and stays out.
    s.u8(i < r.status.size() && r.status[i] == NodeStatus::kQuarantined ? 1
                                                                        : 0);
  }
  s.u32(r.quarantined);
  s.f64(r.total_ipc);
  s.u64(r.instructions);
  s.u64(r.llc_demand_misses);
  s.u64(r.dram_reads_completed);
  s.u64(r.dram_writes_completed);
  s.u64(r.engine_meta_reads);
  s.u64(r.engine_meta_writebacks);
  s.u32(r.nodes_hit_cycle_limit);
  for (std::uint64_t v : r.ipc_hist) s.u64(v);
  for (std::uint64_t v : r.latency_hist) s.u64(v);
  return s.take();
}

void reset_state_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
    throw std::runtime_error(dir + ": cannot create fleet state directory");
  DIR* d = ::opendir(dir.c_str());
  if (!d) throw std::runtime_error(dir + ": cannot scan fleet state directory");
  std::vector<std::string> victims;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("node_", 0) == 0 || name.rfind("chaos_", 0) == 0)
      victims.push_back(dir + "/" + name);
  }
  ::closedir(d);
  for (const std::string& v : victims) std::remove(v.c_str());
}

FleetResult run_fleet(const std::vector<NodeConfig>& nodes,
                      const FleetOptions& options) {
  if (nodes.empty()) throw std::runtime_error("fleet has no nodes");
  const unsigned workers = std::max(1u, options.workers);
  if (::mkdir(options.state_dir.c_str(), 0777) != 0 && errno != EEXIST)
    throw std::runtime_error(options.state_dir +
                             ": cannot create fleet state directory");

  FleetResult result;
  result.names.reserve(nodes.size());
  for (const NodeConfig& n : nodes) result.names.push_back(n.name);
  result.per_node.resize(nodes.size());
  result.status.assign(nodes.size(), NodeStatus::kOk);
  result.quarantine_reasons.resize(nodes.size());
  std::vector<bool> have_result(nodes.size(), false);
  std::vector<bool> resumed(nodes.size(), false);
  std::vector<unsigned> node_failures(nodes.size(), 0);
  std::vector<std::uint64_t> last_progress_cycle(nodes.size(), 0);
  std::vector<std::uint64_t> last_ckpt_cycle(nodes.size(), 0);

  auto quarantined = [&](unsigned id) {
    return result.status[id] == NodeStatus::kQuarantined;
  };
  auto accounted = [&](unsigned id) {
    return have_result[id] || quarantined(id);
  };
  auto quarantine = [&](unsigned id, const std::string& reason) {
    if (accounted(id)) return;
    result.status[id] = NodeStatus::kQuarantined;
    result.quarantine_reasons[id] = reason;
    result.per_node[id] = sim::RunResult{};
  };

  std::vector<Worker> fleet(workers);
  for (unsigned i = 0; i < nodes.size(); ++i)
    fleet[i % workers].node_ids.push_back(i);

  auto spawn = [&](Worker& w) {
    // Respawns drop the nodes already accounted for (result arrived or
    // quarantined).
    std::vector<NodeConfig> configs;
    std::vector<unsigned> ids;
    for (unsigned id : w.node_ids)
      if (!accounted(id)) {
        configs.push_back(nodes[id]);
        ids.push_back(id);
      }
    if (configs.empty()) return;
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("fleet: pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fleet: fork() failed");
    if (pid == 0) {
      ::close(fds[0]);
      worker_main(configs, ids, options, fds[1]);  // never returns
    }
    ::close(fds[1]);
    w.pid = pid;
    w.fd = fds[0];
    w.frames = FrameBuffer{};
    w.done_seen = false;
    w.alive = true;
    w.hung_kill_sent = false;
    w.last_frame_ms = now_ms();
    w.last_active = -1;
  };

  for (Worker& w : fleet) spawn(w);

  bool killed_once = false;
  unsigned respawns = 0;

  auto handle_frame = [&](Worker& w, const std::vector<std::uint8_t>& body) {
    serial::Source s(body.data(), body.size());
    const std::uint8_t type = s.u8();
    switch (type) {
      case kMsgHeartbeat: {
        const std::uint32_t id = s.u32();
        const std::uint64_t cycle = s.u64();
        if (id >= nodes.size())
          throw std::runtime_error("fleet: heartbeat for unknown node");
        w.last_active = static_cast<int>(id);
        last_progress_cycle[id] = cycle;
        break;
      }
      case kMsgCheckpoint: {
        const std::uint32_t id = s.u32();
        const std::uint64_t cycle = s.u64();
        (void)s.u64();  // generation (telemetry/debug only)
        if (id >= nodes.size())
          throw std::runtime_error("fleet: checkpoint for unknown node");
        w.last_active = static_cast<int>(id);
        last_progress_cycle[id] = cycle;
        last_ckpt_cycle[id] = cycle;
        if (options.kill_after_first_checkpoint && !killed_once) {
          killed_once = true;
          ::kill(w.pid, SIGKILL);
        }
        break;
      }
      case kMsgResult: {
        const std::uint32_t id = s.u32();
        if (id >= nodes.size())
          throw std::runtime_error("fleet: result for unknown node");
        w.last_active = static_cast<int>(id);
        serial::get(s, result.per_node[id]);
        have_result[id] = true;
        break;
      }
      case kMsgQuarantine: {
        const std::uint32_t id = s.u32();
        if (id >= nodes.size())
          throw std::runtime_error("fleet: quarantine for unknown node");
        const std::size_t len = s.count(1);
        std::string reason(len, '\0');
        if (len > 0) s.bytes(reason.data(), len);
        quarantine(id, reason);
        break;
      }
      case kMsgDone:
        w.done_seen = true;
        break;
      default:
        throw std::runtime_error("fleet: unknown worker message");
    }
  };

  auto all_accounted = [&] {
    for (unsigned id = 0; id < nodes.size(); ++id)
      if (!accounted(id)) return false;
    return true;
  };

  /// Abnormal death of `w` with unaccounted nodes: attribute, budget,
  /// schedule the backoff respawn.
  auto handle_abnormal_death = [&](Worker& w) {
    // Attribute the death to the node the worker last reported driving
    // (heartbeats precede every slice), falling back to its first
    // unaccounted node when the report is stale.
    unsigned victim = 0;
    bool found = false;
    if (w.last_active >= 0) {
      const unsigned id = static_cast<unsigned>(w.last_active);
      for (unsigned owned : w.node_ids)
        if (owned == id && !accounted(id)) {
          victim = id;
          found = true;
        }
    }
    if (!found)
      for (unsigned id : w.node_ids)
        if (!accounted(id)) {
          victim = id;
          found = true;
          break;
        }
    if (!found) return;  // nothing left to recover
    ++node_failures[victim];
    FailureEvent ev;
    ev.node = victim;
    ev.lost_cycles =
        last_progress_cycle[victim] > last_ckpt_cycle[victim]
            ? last_progress_cycle[victim] - last_ckpt_cycle[victim]
            : 0;
    ev.hung = w.hung_kill_sent;
    result.failures.push_back(ev);
    if (w.hung_kill_sent) ++result.hung_kills;
    if (node_failures[victim] > options.node_failure_budget)
      quarantine(victim,
                 "failure budget exhausted (" +
                     std::to_string(node_failures[victim]) +
                     " abnormal worker deaths attributed to this node)");
    for (unsigned id : w.node_ids)
      if (!accounted(id)) resumed[id] = true;
    bool needs_respawn = false;
    for (unsigned id : w.node_ids)
      if (!accounted(id)) needs_respawn = true;
    if (!needs_respawn) return;
    if (++respawns > options.max_respawns)
      throw std::runtime_error("fleet: respawn budget exhausted");
    ++w.failures;
    // Deterministic exponential backoff, no jitter: identical failure
    // histories produce identical schedules.
    long long delay = options.respawn_backoff_ms;
    for (unsigned k = 1; k < w.failures && delay < options.respawn_backoff_max_ms;
         ++k)
      delay *= 2;
    delay = std::min<long long>(delay, options.respawn_backoff_max_ms);
    result.failures.back().backoff_ms = delay;
    w.respawn_at_ms = now_ms() + delay;
  };

  while (!all_accounted()) {
    const long long now = now_ms();

    // Due respawns.
    for (Worker& w : fleet)
      if (!w.alive && w.respawn_at_ms >= 0 && now >= w.respawn_at_ms) {
        w.respawn_at_ms = -1;
        spawn(w);
      }

    // Watchdog: a worker with no frame inside the deadline is hung —
    // livelocked workers never EOF, so poll alone would block forever.
    if (options.watchdog_deadline_ms > 0)
      for (Worker& w : fleet)
        if (w.alive && !w.hung_kill_sent &&
            now - w.last_frame_ms >=
                static_cast<long long>(options.watchdog_deadline_ms))
          if (::kill(w.pid, SIGKILL) == 0) w.hung_kill_sent = true;

    // Poll timeout: the nearest watchdog or respawn deadline.
    long long timeout = -1;
    auto consider = [&](long long at) {
      const long long t = std::max<long long>(0, at - now);
      if (timeout < 0 || t < timeout) timeout = t;
    };
    if (options.watchdog_deadline_ms > 0)
      for (const Worker& w : fleet)
        if (w.alive && !w.hung_kill_sent)
          consider(w.last_frame_ms + options.watchdog_deadline_ms);
    for (const Worker& w : fleet)
      if (!w.alive && w.respawn_at_ms >= 0) consider(w.respawn_at_ms);

    std::vector<pollfd> pfds;
    std::vector<Worker*> owners;
    for (Worker& w : fleet)
      if (w.alive) {
        pfds.push_back({w.fd, POLLIN, 0});
        owners.push_back(&w);
      }
    if (pfds.empty() && timeout < 0)
      throw std::runtime_error("fleet: results missing with no live worker");
    const int ptimeout =
        timeout < 0 ? -1
                    : static_cast<int>(std::min<long long>(timeout, 60'000));
    const int ready =
        ::poll(pfds.empty() ? nullptr : pfds.data(), pfds.size(), ptimeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("fleet: poll() failed");
    }
    if (ready == 0) continue;  // a deadline fired; re-evaluate at the top

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Worker& w = *owners[i];
      std::uint8_t chunk[1 << 16];
      const ssize_t n = ::read(w.fd, chunk, sizeof chunk);
      if (n > 0) {
        w.last_frame_ms = now_ms();
        w.frames.append(chunk, static_cast<std::size_t>(n));
        std::vector<std::uint8_t> body;
        while (w.frames.next(body)) handle_frame(w, body);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // EOF: the worker exited (a torn trailing frame, if any, stays
      // unparsed in the buffer and is discarded).
      ::close(w.fd);
      w.alive = false;
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      const bool unfinished = [&] {
        for (unsigned id : w.node_ids)
          if (!accounted(id)) return true;
        return false;
      }();
      if (!unfinished) {
        w.failures = 0;  // the slot retired cleanly
        continue;
      }
      if (WIFEXITED(status))
        throw std::runtime_error(
            w.done_seen ? "fleet: worker reported done with results missing"
                        : "fleet: worker failed (exit " +
                              std::to_string(WEXITSTATUS(status)) + ")");
      // Killed by a signal (crash, chaos, or our own watchdog): resume
      // the missing nodes from their durable checkpoint generations in
      // a fresh worker, after the backoff.
      handle_abnormal_death(w);
    }
  }

  // Reap the stragglers (workers that still owe only their done marker).
  for (Worker& w : fleet)
    if (w.alive) {
      ::close(w.fd);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.alive = false;
    }

  result.respawns = respawns;
  for (unsigned id = 0; id < nodes.size(); ++id)
    if (result.status[id] != NodeStatus::kQuarantined && resumed[id])
      result.status[id] = NodeStatus::kRecovered;
  finalize_aggregates(result);
  return result;
}

}  // namespace secddr::fleet
