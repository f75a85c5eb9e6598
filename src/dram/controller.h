// Cycle-level DDR memory controller: FR-FCFS scheduling, per-bank read
// and write request FIFOs with watermark-based write draining,
// bank/rank/channel timing constraints, and per-rank refresh.
//
// Requests are organized per (bank, direction): each entry carries a
// global arrival sequence number, so FR-FCFS age ordering is recovered by
// comparing `seq` across banks instead of walking one global deque. One
// compact table row per bank holds the bank's timing state and, per
// direction, the seq of its oldest open-row hit and of its oldest
// conflict, kept current on enqueue, column issue, ACT and PRE. Per
// (rank, bank group) the controller also keeps the earliest bank-level
// bound of each command class and the shared rank/channel timing floors,
// so the earliest cycle any command could issue is one max/min per group.
// A tick() scans only the groups whose bound has come due, picks the
// command, and leaves the next-event bound for the post-tick state, which
// next_event_cycle() returns as a field read.
//
// Queue sizes follow Table I (64 read + 64 write entries, totals across
// banks); each direction's entries share one pool of that size. The
// data-bus occupancy of writes is `Timings::write_burst_cycles`, which is
// where SecDDR's eWCRC burst extension (BL8 -> BL10) costs bandwidth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "common/types.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/power.h"
#include "dram/timings.h"

namespace secddr::dram {

/// A completed memory transaction, reported to the owner via `tag`.
struct Completion {
  std::uint64_t tag = 0;
  Addr addr = 0;
  bool is_write = false;
  Cycle arrival = 0;
  Cycle finish = 0;  ///< cycle the last data beat left the bus

  static auto fields(auto& c) {
    return std::tie(c.tag, c.addr, c.is_write, c.arrival, c.finish);
  }
};
static_assert(serial::lists_all_fields<Completion>());

/// Controller statistics.
struct ControllerStats {
  std::uint64_t reads_enqueued = 0;
  std::uint64_t writes_enqueued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t write_forwards = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  std::uint64_t total_read_latency = 0;  ///< sum over completed reads

  double row_hit_rate() const {
    const std::uint64_t n = row_hits + row_misses;
    return n ? static_cast<double>(row_hits) / static_cast<double>(n) : 0.0;
  }
  double avg_read_latency() const {
    return reads_completed ? static_cast<double>(total_read_latency) /
                                 static_cast<double>(reads_completed)
                           : 0.0;
  }

  static auto fields(auto& s) {
    return std::tie(s.reads_enqueued, s.writes_enqueued, s.reads_completed,
                    s.writes_completed, s.row_hits, s.row_misses,
                    s.activates, s.precharges, s.refreshes, s.write_forwards,
                    s.data_bus_busy_cycles, s.total_read_latency);
  }

  /// Accumulates another channel's counters (multi-channel aggregation).
  ControllerStats& operator+=(const ControllerStats& o) {
    return serial::accumulate(*this, o);
  }
};
static_assert(serial::lists_all_fields<ControllerStats>());

/// Scheduler scan-cost accounting, kept out of ControllerStats on purpose:
/// the per-cycle and event-driven loops run different numbers of scans, so
/// these counters are loop-mode-dependent and must never enter RunResult
/// (which the determinism tests compare bit-for-bit). `bench/speed` reads
/// them to show entries visited per issued command.
struct ScanStats {
  std::uint64_t issue_scans = 0;      ///< (class, direction) scans tried
  std::uint64_t entries_visited = 0;  ///< group records, bank rows and FIFO
                                      ///< entries examined
  std::uint64_t queue_depth_sum = 0;  ///< scanned direction's queue depth
                                      ///< per scan (what a global-deque
                                      ///< walk costs)
  std::uint64_t commands_issued = 0;  ///< scheduler commands (no refresh)

  static auto fields(auto& s) {
    return std::tie(s.issue_scans, s.entries_visited, s.queue_depth_sum,
                    s.commands_issued);
  }

  ScanStats& operator+=(const ScanStats& o) {
    return serial::accumulate(*this, o);
  }
};
static_assert(serial::lists_all_fields<ScanStats>());

/// Request-scheduling policy.
enum class SchedulingPolicy {
  kFrFcfs,  ///< first-ready FCFS: oldest row hit first (default)
  kFcfs,    ///< strict arrival order (ablation baseline)
};

/// Read-only tap on the DRAM command stream the controller issues, in
/// issue order. This is the *ground truth* an on-bus observer would see
/// before any tampering: the fuzz campaign's TrackerGroundTruth property
/// tests replay it into core::TrackingInterposer and require the
/// attacker's open-row model to agree with the controller's — including
/// mid-stream attachment, where a bank whose ACTIVATE predates the
/// observer must resolve as *unknown*, never as a concrete (wrong) row.
/// Observers must not mutate controller state.
class CommandObserver {
 public:
  virtual ~CommandObserver() = default;
  virtual void on_activate(const DecodedAddr& /*d*/, Cycle /*now*/) {}
  virtual void on_precharge(unsigned /*rank*/, unsigned /*bank_group*/,
                            unsigned /*bank*/, Cycle /*now*/) {}
  virtual void on_column(const DecodedAddr& /*d*/, bool /*is_write*/,
                         Cycle /*now*/) {}
  virtual void on_refresh(unsigned /*rank*/, Cycle /*now*/) {}
};

/// Single-channel memory controller.
class Controller {
 public:
  Controller(const Geometry& geometry, const Timings& timings,
             unsigned read_queue_size = 64, unsigned write_queue_size = 64,
             SchedulingPolicy policy = SchedulingPolicy::kFrFcfs,
             const PowerConfig& power = {});

  /// True if a read (write) can be enqueued this cycle.
  bool can_accept_read() const { return q_size_[0] < rq_size_; }
  bool can_accept_write() const { return q_size_[1] < wq_size_; }

  /// Enqueues a transaction; returns false if the queue is full.
  /// Reads that hit a pending write are forwarded and complete quickly.
  bool enqueue(Addr addr, bool is_write, std::uint64_t tag, Cycle now);

  /// Advances one memory-clock cycle: issues at most one DRAM command and
  /// retires finished transactions into the completion list.
  void tick(Cycle now);

  /// Conservative next-event query for the event-driven loop: the
  /// earliest memory cycle >= `now` at which tick() could change any
  /// state or statistic (command issue, read retirement, or a refresh
  /// transition). Every tick strictly before the returned cycle is a
  /// guaranteed no-op; the returned cycle itself may still be one (the
  /// estimate errs early, never late). Refresh keeps this finite
  /// (<= ~tREFI away) even for an idle controller. A field read: tick()
  /// leaves the bound, enqueue() folds new entries into it and load()
  /// rebuilds it.
  Cycle next_event_cycle(Cycle now) const {
    return std::max(next_event_, now);
  }

  /// Completions since the last call (caller drains and clears).
  std::vector<Completion>& completions() { return completions_; }
  bool has_undrained_completions() const { return !completions_.empty(); }

  const ControllerStats& stats() const { return stats_; }
  const ScanStats& scan_stats() const { return scan_stats_; }
  /// Clears statistics after warmup; bank/queue state is preserved. Power
  /// accounting zeroes its cumulative totals but keeps physical state
  /// (temperatures, in-window counts, throttle engagement, remap table).
  void reset_stats() {
    stats_ = ControllerStats{};
    scan_stats_ = ScanStats{};
    if (power_on_) reset_power_stats();
  }

  // --- dynamic power / thermal (inert unless PowerConfig::enabled) -----
  const PowerConfig& power_config() const { return power_cfg_; }
  /// Processes accounting windows that have fully elapsed by `now`. With
  /// policies off the window bookkeeping is lazy (elided event-driven
  /// ticks issue no commands, so late processing is arithmetic-identical);
  /// owners must call this before reset_stats() so the cumulative totals
  /// cut over at the same window in every loop mode.
  void catch_up_power(Cycle now) {
    if (power_on_) power_advance(now);
  }
  /// Cumulative energy/thermal report. Catches accounting up to `now`
  /// first, which is behavior-neutral (the same window closes would run
  /// at the next tick anyway, with identical arithmetic).
  PowerReport power_report(Cycle now);
  const Timings& timings() const { return timings_; }
  const Geometry& geometry() const { return geometry_; }
  const AddressMapping& mapping() const { return mapping_; }

  /// Outstanding queued transactions (for drain checks in tests/harness).
  std::size_t pending() const {
    return q_size_[0] + q_size_[1] + inflight_reads_.size();
  }

  // --- lookahead-window queries (epoch-decoupled execution) -----------
  // The backend's safe-horizon computation bounds the earliest cycle this
  // channel could hand a finished read back to the cores; these expose
  // the three facts that bound it without running a tick.
  /// Min data-arrival cycle over in-flight reads (kNoEvent when none):
  /// the earliest retirement upcoming ticks could produce.
  Cycle inflight_read_finish() const { return inflight_min_finish_; }
  /// Read entries sitting in the request queues (not yet issued).
  std::size_t queued_reads() const { return q_size_[0]; }
  /// True when a queued write covers `addr`'s line — the predicate
  /// enqueue() applies when it forwards an arriving read from write data.
  bool has_queued_write_to_line(Addr addr) const;

  /// Installs (or clears, with nullptr) the command-stream tap.
  void set_command_observer(CommandObserver* obs) { observer_ = obs; }

  /// Checkpoint hooks: the full scheduler state (bank timing, rank
  /// refresh/ACT windows, per-bank FIFOs, in-flight reads, undrained
  /// completions, bus history, stats; when power accounting is enabled,
  /// the power/thermal block — remap table, window counts, thermal nodes,
  /// throttle state — is serialized first so queued requests re-decode
  /// through the restored bank permutation). The per-bank table's hit and
  /// conflict positions, the queue depths and the next-event bound are
  /// derived state, rebuilt on load; `Request::d` is recomputed from the
  /// address mapping. load() throws std::runtime_error on a geometry
  /// mismatch or a queue larger than its configured size.
  void save(serial::Sink& s) const;
  void load(serial::Source& s);

 private:
  struct InflightRead {
    Request entry;
    Cycle finish;
  };
  struct RankState {
    Cycle act_window[4] = {};  ///< last ACT timestamps, oldest first (tFAW)
    unsigned acts = 0;         ///< valid entries in act_window
    Cycle last_act = 0;
    bool have_last_act = false;
    unsigned last_act_bg = 0;
    Cycle next_refresh_due = 0;
    bool refresh_pending = false;
  };

  /// Index into a direction's request pool; kNil ends a FIFO.
  using Slot = std::uint16_t;
  static constexpr Slot kNil = 0xffff;
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  /// A queued request and its links in its bank's arrival-ordered FIFO.
  struct Node {
    Request r;
    Slot prev = kNil, next = kNil;
  };

  /// One row of the per-bank scheduling table: the bank's timing state
  /// and, per direction, the seq of the oldest entry hitting the open row
  /// and of the oldest entry that does not (while the bank is closed every
  /// entry counts as a conflict, so `conf_seq` is the FIFO head). kNoSeq
  /// marks "none"; the FIFO head is always the older of the two.
  struct BankRow {
    Bank bank;
    std::uint64_t hit_seq[2] = {kNoSeq, kNoSeq};
    std::uint64_t conf_seq[2] = {kNoSeq, kNoSeq};
  };
  /// Pool positions behind a BankRow's seqs (read only when a command
  /// issues or an entry arrives, so kept out of the scanned rows).
  struct BankLinks {
    Slot head[2] = {kNil, kNil};
    Slot tail[2] = {kNil, kNil};
    Slot hit[2] = {kNil, kNil};
    Slot conf[2] = {kNil, kNil};
  };

  /// Timing floors shared by every bank of one (rank, bank group): the
  /// channel/rank-level parts of a column bound (tCCD vs the last column,
  /// data-bus availability and turnaround) per direction, and of an ACT
  /// bound (tFAW, tRRD vs the rank's last ACT; kNoEvent while refresh
  /// gates the rank). A bank's full bound is the max of its own `next_*`
  /// field and its group's floor.
  struct Floors {
    Cycle col[2];
    Cycle act;
  };
  /// Per (rank, bank group): the minimum bank-level bound of each
  /// candidate class, so the group's earliest candidate is one max() with
  /// its floor. col[dir] over open banks with a row hit, `act` over closed
  /// banks with entries, `pre` (no floor) over open banks with a conflict.
  /// Kept current with the table: an arriving entry can only add a
  /// candidate (a min-fold), a command re-folds its bank's group, and the
  /// rank-wide tWTR and tRFC pushes lift every group of the rank alike.
  struct GroupBounds {
    Cycle col[2] = {kNoEvent, kNoEvent};
    Cycle act = kNoEvent;
    Cycle pre = kNoEvent;
  };
  /// The oldest allowed candidate of one command class.
  struct Pick {
    std::uint64_t seq = kNoSeq;
    unsigned flat = 0;
  };
  /// Strict FCFS: a direction's oldest entry and its one possible command.
  struct FcfsHead {
    int flat = -1;
    bool column = false;  ///< row hit (else ACT or PRE)
    Cycle at = kNoEvent;  ///< earliest cycle that command is allowed
  };

  bool handle_refresh(Cycle now);
  /// Removes `flat`'s oldest row hit in `dir` and issues its column.
  void issue_column(unsigned flat, unsigned dir, Cycle now);
  /// ACTIVATE for the head of `flat`'s `dir` FIFO.
  void activate(unsigned flat, unsigned dir, Cycle now);
  void apply_write_to_read_penalty(const Request& e, Cycle data_end);
  /// Whether the next tick would serve write columns (same predicate the
  /// tick uses, against the current drain flag and queue states).
  bool serving_writes() const {
    return draining_writes_ || (q_size_[0] == 0 && q_size_[1] != 0);
  }
  /// A drain-watermark flip the next tick will perform.
  bool drain_flip_pending() const {
    return draining_writes_ ? q_size_[1] <= drain_low_
                            : q_size_[1] >= drain_high_;
  }

  // --- scheduling table --------------------------------------------------
  /// (rank, bank group) index of a flat bank: flat / banks_per_group.
  unsigned group_of(unsigned flat) const { return group_of_[flat]; }
  /// Re-derive floors_ after the state they depend on changes: the column
  /// floors after a column command, one rank's ACT floors after an ACT or
  /// a refresh-gating change, everything after load().
  void prime_col_floors();
  void prime_act_floors(unsigned rank);
  void prime_floors();
  /// Min-folds `flat`'s candidates into its group's bounds.
  void fold_bank(unsigned flat);
  /// Re-derives group `g`'s bounds from its rows (after a command).
  void refold_group(unsigned g);
  /// FR-FCFS class scans, visiting only groups whose bound has come due:
  /// the oldest allowed row hit (column) of `dir`, and the oldest allowed
  /// non-hit (ACT/PRE) of each direction (one scan serves both).
  Pick pick_column(unsigned dir, Cycle now);
  void pick_prep(Cycle now, Pick (&best)[2]);
  /// A class scan plus its issue; false when nothing is allowed. try_prep
  /// serves `first` before the other direction.
  bool try_column(unsigned dir, Cycle now);
  bool try_prep(unsigned first, Cycle now);
  /// Earliest command over group_ and floors_ (FR-FCFS); stops early
  /// once the answer is <= `floor`, which event_bound() clamps up to.
  Cycle frfcfs_command_bound(Cycle floor) const;
  FcfsHead fcfs_head(unsigned dir) const;
  /// Earliest command for the two strict-FCFS heads.
  Cycle fcfs_command_bound(const FcfsHead (&heads)[2]) const;
  /// tick()'s strict-FCFS step: issue (if allowed) and leave the bound.
  void tick_fcfs(Cycle now, bool may_issue);
  /// The next-event bound given the earliest command bound `cmd`: folds
  /// throttle rounding, drain flips, policy-window boundaries, read
  /// retirement and refresh, clamped to >= `floor`.
  Cycle event_bound(Cycle cmd, Cycle floor) const;
  Cycle refresh_bound() const;
  /// Earliest cycle a newly queued `e` could act (enqueue-time fold).
  Cycle entry_event_bound(const Request& e, bool is_write) const;
  /// Folds a possibly-earlier event into next_event_ (enqueue only: a
  /// tick() leaves a fresh bound).
  void observe_event_candidate(Cycle at) {
    next_event_ = std::min(next_event_, at);
  }

  // --- per-bank FIFOs ----------------------------------------------------
  /// Empties every FIFO and both pools (bank timing state is kept).
  void reset_queues();
  /// The queued write to `addr`'s line in `flat`'s FIFO, or kNil.
  Slot find_write(unsigned flat, Addr addr) const;
  /// Appends `e` to `flat`'s `dir` FIFO and classifies it.
  void push_entry(unsigned dir, unsigned flat, const Request& e);
  /// Re-derives `flat`'s hit/conflict heads in both directions from its
  /// open row (after ACT or PRE).
  void reclassify(unsigned flat);
  /// Closes a bank via PRECHARGE and reclassifies its entries.
  void close_bank(unsigned flat, Cycle now);
  bool bank_idle(unsigned flat) const {
    return links_[flat].head[0] == kNil && links_[flat].head[1] == kNil;
  }
  /// Rebuilds the next-event bound from the current state (after load).
  void rebuild_next_event();

  // --- dynamic power / thermal internals -------------------------------
  /// Decodes `addr` and applies the logical->physical bank permutation
  /// (identity unless the remap policy is enabled).
  DecodedAddr map_addr(Addr addr) const;
  /// Closes every accounting window that has fully elapsed by `now`.
  void power_advance(Cycle now);
  /// Converts the current window's counts to energy, steps the per-rank
  /// thermal nodes, and evaluates the throttle/remap policies.
  void close_power_window();
  /// Swaps the busiest idle bank of the hottest rank with the least busy
  /// idle bank of the coolest rank (window-close policy hook).
  void maybe_remap();
  void reset_power_stats();
  Request load_request(serial::Source& s) const;

  Geometry geometry_;
  Timings timings_;
  AddressMapping mapping_;
  SchedulingPolicy policy_;
  unsigned rq_size_, wq_size_;
  unsigned drain_low_, drain_high_;
  bool draining_writes_ = false;

  std::vector<BankRow> rows_;        ///< the scheduling table, per flat bank
  std::vector<BankLinks> links_;     ///< FIFO positions, per flat bank
  std::vector<RankState> ranks_;
  /// Request pools per direction (capacity = queue size), shared by every
  /// bank's FIFO; `free_` heads each pool's free list.
  std::vector<Node> pool_[2];
  Slot free_[2] = {kNil, kNil};
  unsigned q_size_[2] = {0, 0};
  std::uint64_t next_seq_ = 0;

  std::vector<InflightRead> inflight_reads_;
  /// Min finish over inflight_reads_ (kNoEvent when empty), maintained on
  /// push and during tick()'s retire pass.
  Cycle inflight_min_finish_ = kNoEvent;
  std::vector<Completion> completions_;

  // Channel-level constraints.
  Cycle bus_free_at_ = 0;
  bool bus_last_was_write_ = false;
  unsigned bus_last_rank_ = 0;
  Cycle last_col_cmd_ = 0;
  bool have_last_col_ = false;
  unsigned last_col_bg_ = 0;
  unsigned last_col_rank_ = 0;

  /// next_event_cycle()'s bound: left by every tick(), lowered by
  /// enqueue(), rebuilt by load(). 0 until the first tick.
  Cycle next_event_ = 0;
  std::vector<unsigned> group_of_;  ///< flat bank -> group
  std::vector<GroupBounds> group_;       ///< per (rank, bank group)
  std::vector<Floors> floors_;  ///< per group, always current

  ControllerStats stats_;
  ScanStats scan_stats_;
  CommandObserver* observer_ = nullptr;

  // --- dynamic power / thermal state (all inert when power_on_ false) --
  PowerConfig power_cfg_;
  bool power_on_ = false;      ///< power_cfg_.enabled
  bool any_policy_ = false;    ///< power_cfg_.any_policy()
  bool remap_active_ = false;  ///< enabled && remap
  std::uint64_t throttle_period_ = 1;  ///< clamped >= 1
  analysis::EnergyModel energy_model_;
  Cycle power_window_start_ = 0;
  /// Commands per rank in the (single) window currently accumulating.
  /// Lazy processing cannot mix windows: every tick/enqueue closes all
  /// elapsed windows *before* the command taps run, so nonzero counts
  /// always belong to the oldest unprocessed window, and windows with no
  /// ticks at all had no commands to record.
  std::vector<analysis::CommandCounts> window_counts_;
  std::vector<std::uint64_t> bank_activity_;  ///< per flat bank, this window
  std::vector<analysis::ThermalNode> thermal_;      ///< per rank
  std::vector<std::uint64_t> rank_energy_fj_;       ///< since stats reset
  analysis::EnergyBreakdown energy_total_;          ///< since stats reset
  analysis::CommandCounts counts_total_;            ///< since stats reset
  std::uint64_t power_windows_ = 0;
  std::uint64_t throttled_windows_ = 0;
  std::uint64_t remap_swaps_ = 0;
  std::uint64_t windows_since_swap_ = 0;
  bool throttle_engaged_ = false;
  std::vector<std::uint32_t> remap_;      ///< logical flat -> physical flat
  std::vector<std::uint32_t> remap_inv_;  ///< physical flat -> logical flat
};

}  // namespace secddr::dram
