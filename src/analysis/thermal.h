// Compact transient thermal model: one RC node per DRAM rank.
//
// Physics: a lumped node with thermal capacitance C coupled to ambient
// through resistance R. Injecting energy E over a window of length dt
// (piecewise-constant power P = E/dt) and decaying toward ambient gives
// the exact discrete solution
//
//   T[n+1] = T_amb + alpha * (T[n] - T_amb) + P * R * (1 - alpha),
//   alpha  = exp(-dt / (R * C))
//
// which agrees with the continuous exponential solution at every window
// boundary. The recurrence is evaluated in fixed point so temperature
// trajectories are bit-identical across platforms, loop modes, and
// checkpoint restores:
//
//   temperature      Q32 (degrees C * 2^32, int64)
//   alpha            Q30, via an integer exp() (range-reduce by halving,
//                    6-term alternating Taylor series in Q62, square back)
//   injection gain   Q64 (degrees C per femtojoule):
//                    gain = R * (1 - alpha) / dt   [R in mK/W, dt in fs]
//
// Both per-window terms round to nearest. The state is Q32 because a
// realistic node moves far less than a Q16 ulp per window: at the default
// constants (tau = 0.4 s, 640 ns windows) 2 W injects ~1.3e-5 C per
// window, under one Q16 ulp (1.5e-5 C), so a Q16 node never leaves
// ambient. At Q32 the same step is ~55,000 ulps.
//
// No floating point touches the simulation path; doubles appear only in
// tests, which check the fixed-point step against the closed form.
#pragma once

#include <cstdint>

#include "common/serial.h"

namespace secddr::analysis {

/// RC parameters for one rank node. Defaults model a DRAM device on a
/// DIMM: ~4 K/W junction-to-ambient, ~0.1 J/K lumped capacitance
/// (seconds-scale time constant), 45 C ambient inside the chassis.
struct ThermalParams {
  std::uint32_t r_mk_per_w = 4000;         ///< resistance, milli-Kelvin per W
  std::uint64_t c_nj_per_k = 100'000'000;  ///< capacitance, nanojoule per K
  std::int64_t ambient_mc = 45'000;        ///< ambient, milli-degrees C

  static auto fields(auto& p) {
    return std::tie(p.r_mk_per_w, p.c_nj_per_k, p.ambient_mc);
  }
};
static_assert(serial::lists_all_fields<ThermalParams>());

/// One rank's transient temperature state. The step constants (alpha,
/// gain) are derived from config at construction and never serialized;
/// only the mutable state (current + peak temperature) round-trips.
class ThermalNode {
 public:
  ThermalNode() = default;

  /// `window_cycles` memory-clock cycles per accounting window,
  /// `period_fs` femtoseconds per memory-clock cycle.
  ThermalNode(const ThermalParams& params, std::uint64_t window_cycles,
              std::uint64_t period_fs);

  /// Advance one window: decay toward ambient, inject `energy_fj`.
  void apply_window(std::uint64_t energy_fj);

  std::int64_t temp_q32() const { return t_q32_; }
  std::int64_t peak_q32() const { return peak_q32_; }
  std::int64_t temp_mc() const { return q32_to_mc(t_q32_); }
  std::int64_t peak_mc() const { return q32_to_mc(peak_q32_); }

  void reset_peak() { peak_q32_ = t_q32_; }

  /// Restore serialized mutable state (derived constants come from the
  /// config the owner reconstructs the node with).
  void set_state(std::int64_t t_q32, std::int64_t peak_q32) {
    t_q32_ = t_q32;
    peak_q32_ = peak_q32;
  }

  std::uint64_t alpha_q30() const { return alpha_q30_; }
  std::uint64_t gain_q64() const { return gain_q64_; }

  static std::int64_t mc_to_q32(std::int64_t mc) {
    return mc * (std::int64_t{1} << 32) / 1000;
  }
  static std::int64_t q32_to_mc(std::int64_t q32) {
    return q32 * 1000 / (std::int64_t{1} << 32);
  }

  /// Integer exp(-x): x in Q32 (unsigned), result in Q30.
  static std::uint64_t exp_neg_q32_to_q30(std::uint64_t x_q32);

 private:
  std::uint64_t alpha_q30_ = 1ull << 30;  ///< decay per window
  std::uint64_t gain_q64_ = 0;            ///< degrees C per fJ injected
  std::int64_t amb_q32_ = std::int64_t{45} << 32;
  std::int64_t t_q32_ = std::int64_t{45} << 32;
  std::int64_t peak_q32_ = std::int64_t{45} << 32;
};

}  // namespace secddr::analysis
