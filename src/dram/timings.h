// DDR4/DDR5 device geometry and timing parameters.
//
// Values follow Table I of the paper (DDR4-3200 at 1600MHz memory clock).
// SecDDR's eWCRC lengthens the *write* burst (BL8 -> BL10 on DDR4,
// BL16 -> BL18 on DDR5), which is expressed here as `write_burst_cycles`.
// The InvisiMem "realistic" configuration runs the channel at 2400MT/s to
// account for its centralized data buffer (paper §VI-D).
#pragma once

#include <cstdint>
#include <string>

#include "common/serial.h"
#include "common/types.h"

namespace secddr::dram {

/// Where the channel-select bits sit in the physical address.
enum class ChannelInterleave : std::uint8_t {
  /// Channel bits directly above the line offset: consecutive cache lines
  /// round-robin across channels (maximum bandwidth spreading).
  kLine,
  /// Channel bits above the column bits: row-buffer-sized stripes stay on
  /// one channel (preserves per-channel row locality).
  kRow,
};

/// Channel/DIMM organization. Defaults model one 16GB dual-rank DIMM built
/// from 8Gb x8 devices: 2 ranks x 4 bank groups x 4 banks x 64K rows x
/// 128 cache lines (8KB row buffer). `ranks`..`columns_per_row` describe a
/// single channel; `channels` replicates that channel (each with its own
/// controller, command/data bus, and security engine — SecDDR protects
/// each DDR interface independently).
struct Geometry {
  unsigned channels = 1;
  ChannelInterleave channel_interleave = ChannelInterleave::kLine;
  unsigned ranks = 2;
  unsigned bank_groups = 4;
  unsigned banks_per_group = 4;
  std::uint64_t rows_per_bank = 1ull << 16;
  unsigned columns_per_row = 128;  ///< cache lines per row

  unsigned banks_per_rank() const { return bank_groups * banks_per_group; }
  unsigned total_banks() const { return ranks * banks_per_rank(); }
  std::uint64_t lines_per_bank() const {
    return rows_per_bank * columns_per_row;
  }
  /// Capacity of one channel.
  std::uint64_t channel_capacity_bytes() const {
    return static_cast<std::uint64_t>(total_banks()) * lines_per_bank() *
           kLineSize;
  }
  /// Total capacity across all channels.
  std::uint64_t capacity_bytes() const {
    return channels * channel_capacity_bytes();
  }

  static auto fields(auto& g) {
    return std::tie(g.channels, g.channel_interleave, g.ranks, g.bank_groups,
                    g.banks_per_group, g.rows_per_bank, g.columns_per_row);
  }
};
static_assert(serial::lists_all_fields<Geometry>());

/// DRAM timing parameters in memory-clock cycles.
struct Timings {
  std::string name = "DDR4-3200";
  double clock_mhz = 1600.0;  ///< memory clock (data rate = 2x)

  unsigned tCL = 22;     ///< read command to first data
  unsigned tRCD = 22;    ///< activate to column command
  unsigned tRP = 22;     ///< precharge to activate
  unsigned tRAS = 56;    ///< activate to precharge
  unsigned tCCD_S = 4;   ///< column-to-column, different bank group
  unsigned tCCD_L = 10;  ///< column-to-column, same bank group
  unsigned tCWL = 16;    ///< write command to first data
  unsigned tWTR_S = 4;   ///< write data end to read cmd, different bank group
  unsigned tWTR_L = 12;  ///< write data end to read cmd, same bank group
  unsigned tRRD_S = 4;   ///< activate to activate, different bank group
  unsigned tRRD_L = 6;   ///< activate to activate, same bank group
  unsigned tFAW = 26;    ///< four-activate window
  unsigned tWR = 24;     ///< write recovery (data end to precharge)
  unsigned tRTP = 12;    ///< read to precharge
  unsigned tRFC = 560;   ///< refresh cycle time (350ns)
  unsigned tREFI = 12480;  ///< refresh interval (7.8us)
  unsigned turnaround = 2;  ///< bus direction / rank switch penalty

  unsigned read_burst_cycles = 4;   ///< BL8 on DDR4
  unsigned write_burst_cycles = 4;  ///< BL8; eWCRC raises this to 5 (BL10)

  /// Nanoseconds per memory-clock cycle.
  double ns_per_cycle() const { return 1000.0 / clock_mhz; }

  /// Table I configuration: DDR4-3200 at 1600MHz.
  static Timings ddr4_3200();
  /// Derated channel for InvisiMem's centralized buffer (2400MT/s).
  static Timings ddr4_2400();
  /// DDR5-ish preset (used by the power model discussion only).
  static Timings ddr5_4800();

  /// Returns a copy with the eWCRC write burst extension applied
  /// (BL8 -> BL10 on DDR4: 4 -> 5 data-bus cycles).
  Timings with_ewcrc_burst() const;

  /// Every member but `name`, a label that never affects timing.
  static auto fields(auto& t) {
    return std::tie(t.clock_mhz, t.tCL, t.tRCD, t.tRP, t.tRAS, t.tCCD_S,
                    t.tCCD_L, t.tCWL, t.tWTR_S, t.tWTR_L, t.tRRD_S, t.tRRD_L,
                    t.tFAW, t.tWR, t.tRTP, t.tRFC, t.tREFI, t.turnaround,
                    t.read_burst_cycles, t.write_burst_cycles);
  }
};
static_assert(serial::lists_all_fields<Timings>(/*unlisted=*/1));

}  // namespace secddr::dram
