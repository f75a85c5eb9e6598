// Per-channel dynamic power + thermal configuration and reporting.
//
// Everything here is off by default (`enabled = false`): the default
// build issues zero extra commands and keeps timing bit-identical to a
// power-unaware controller. With `enabled` set, the controller counts
// ACT/PRE/RD/WR/REF per rank over fixed accounting windows, converts
// each window to energy (analysis::EnergyModel), and steps one RC
// thermal node per rank (analysis::ThermalNode). Accounting alone never
// perturbs timing. The two policies do, deterministically:
//
//  * throttle — once the hottest rank crosses `trip_mc`, command issue
//    is gated to cycles where `cycle % throttle_period == 0` until the
//    rank cools below `release_mc` (refresh is never throttled).
//  * remap    — a logical->physical flat-bank permutation; at window
//    close, if the hottest rank runs `remap_delta_mc` above the coolest,
//    the busiest idle bank of the hot rank swaps places with the least
//    busy idle bank of the cool rank (both banks' queues must be empty,
//    so in-flight ordering invariants are untouched).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/energy.h"
#include "analysis/thermal.h"
#include "common/serial.h"

namespace secddr::dram {

struct PowerConfig {
  bool enabled = false;
  /// Accounting window length in memory-clock cycles.
  std::uint64_t window_cycles = 1024;
  analysis::DramEnergyParams energy;
  analysis::ThermalParams thermal;

  bool throttle = false;
  std::int64_t trip_mc = 85'000;     ///< engage at/above, milli-degrees C
  std::int64_t release_mc = 83'000;  ///< disengage at/below (hysteresis)
  std::uint64_t throttle_period = 4; ///< issue 1 cycle in N while engaged

  bool remap = false;
  std::int64_t remap_delta_mc = 2'000;     ///< min hot-cold spread to act
  std::uint64_t remap_min_windows = 8;     ///< min windows between swaps

  bool any_policy() const { return enabled && (throttle || remap); }

  static auto fields(auto& c) {
    return std::tie(c.enabled, c.window_cycles, c.energy, c.thermal,
                    c.throttle, c.trip_mc, c.release_mc, c.throttle_period,
                    c.remap, c.remap_delta_mc, c.remap_min_windows);
  }
};
static_assert(serial::lists_all_fields<PowerConfig>());

struct RankPowerReport {
  std::uint64_t energy_fj = 0;  ///< cumulative since last stats reset
  std::int64_t temp_mc = 0;     ///< current temperature
  std::int64_t peak_mc = 0;     ///< peak since last stats reset

  static auto fields(auto& r) {
    return std::tie(r.energy_fj, r.temp_mc, r.peak_mc);
  }
};
static_assert(serial::lists_all_fields<RankPowerReport>());

struct PowerReport {
  bool enabled = false;
  analysis::EnergyBreakdown energy;   ///< channel total since stats reset
  analysis::CommandCounts counts;     ///< commands accounted (all ranks)
  std::uint64_t windows = 0;          ///< accounting windows closed
  std::uint64_t throttled_windows = 0;
  std::uint64_t remap_swaps = 0;
  std::vector<RankPowerReport> ranks;

  static auto fields(auto& p) {
    return std::tie(p.enabled, p.energy, p.counts, p.windows,
                    p.throttled_windows, p.remap_swaps, p.ranks);
  }
};
static_assert(serial::lists_all_fields<PowerReport>());

}  // namespace secddr::dram
