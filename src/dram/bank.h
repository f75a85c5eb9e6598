// Per-bank DRAM state machine and the controller's queued-request record.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "dram/address.h"

namespace secddr::dram {

/// Timing state of one DRAM bank. The controller consults the `next_*`
/// earliest-allowed cycles before issuing a command and updates them on
/// issue; the bank itself only tracks the open row.
struct Bank {
  static constexpr std::int64_t kClosed = -1;

  std::int64_t open_row = kClosed;
  Cycle next_activate = 0;
  Cycle next_read = 0;
  Cycle next_write = 0;
  Cycle next_precharge = 0;

  bool is_open() const { return open_row != kClosed; }

  /// Applies an ACTIVATE issued at `now`.
  void activate(std::uint64_t row, Cycle now, unsigned tRCD, unsigned tRAS) {
    open_row = static_cast<std::int64_t>(row);
    next_read = std::max(next_read, now + tRCD);
    next_write = std::max(next_write, now + tRCD);
    next_precharge = std::max(next_precharge, now + tRAS);
  }

  /// Applies a PRECHARGE issued at `now`.
  void precharge(Cycle now, unsigned tRP) {
    open_row = kClosed;
    next_activate = std::max(next_activate, now + tRP);
  }
};

/// One queued controller transaction. `seq` is the global arrival order
/// (unique, monotone), which is what FR-FCFS ages and tie-breaks on:
/// entries live in per-bank FIFOs, and comparing `seq` across banks
/// recovers the global arrival order.
struct Request {
  Addr addr;
  DecodedAddr d;
  std::uint64_t tag;
  Cycle arrival;
  std::uint64_t seq;
  bool activated_for = false;  ///< an ACT was issued on this entry's behalf
};

}  // namespace secddr::dram
