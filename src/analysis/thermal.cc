#include "analysis/thermal.h"

namespace secddr::analysis {

namespace {
using u128 = unsigned __int128;
}  // namespace

std::uint64_t ThermalNode::exp_neg_q32_to_q30(std::uint64_t x_q32) {
  if (x_q32 == 0) return 1ull << 30;
  // exp(-45) < 2^-64: indistinguishable from zero at Q30.
  if (x_q32 >= (45ull << 32)) return 0;
  // Range-reduce by halving until the series argument y < 1/8, where the
  // 6-term alternating Taylor tail is < y^7/7! < 2^-33 (below Q62 noise
  // after the squarings below).
  unsigned halvings = 0;
  while ((x_q32 >> halvings) >= (1ull << 29)) ++halvings;
  const std::uint64_t y_q32 = x_q32 >> halvings;
  // exp(-y) = 1 - y + y^2/2 - y^3/6 + ... accumulated in Q62.
  std::uint64_t term_q62 = y_q32 << 30;
  std::uint64_t acc_q62 = (1ull << 62) - term_q62;
  for (unsigned k = 2; k <= 6; ++k) {
    term_q62 = static_cast<std::uint64_t>((u128(term_q62) * y_q32) >> 32) / k;
    if (term_q62 == 0) break;
    if ((k & 1u) == 0) {
      acc_q62 += term_q62;
    } else {
      acc_q62 -= term_q62;
    }
  }
  // Undo the halvings: exp(-x) = exp(-x/2)^2. acc stays <= 2^62 so the
  // 128-bit square never overflows.
  for (unsigned i = 0; i < halvings; ++i) {
    acc_q62 = static_cast<std::uint64_t>((u128(acc_q62) * acc_q62) >> 62);
  }
  return acc_q62 >> 32;
}

ThermalNode::ThermalNode(const ThermalParams& params,
                         std::uint64_t window_cycles,
                         std::uint64_t period_fs) {
  amb_q32_ = mc_to_q32(params.ambient_mc);
  t_q32_ = amb_q32_;
  peak_q32_ = amb_q32_;
  const u128 dt_fs = u128(window_cycles) * period_fs;
  const u128 rc_fs = u128(params.r_mk_per_w) * params.c_nj_per_k * 1000;
  if (dt_fs == 0 || rc_fs == 0) {
    // Degenerate config: inert node (alpha = 1, gain = 0).
    alpha_q30_ = 1ull << 30;
    gain_q64_ = 0;
    return;
  }
  u128 x_q32 = (dt_fs << 32) / rc_fs;
  if (x_q32 > (u128(45) << 32)) x_q32 = u128(45) << 32;
  alpha_q30_ = exp_neg_q32_to_q30(static_cast<std::uint64_t>(x_q32));
  std::uint64_t one_minus_q30 = (1ull << 30) - alpha_q30_;
  // Clamp so a nonzero window always injects: Q30 rounding could
  // otherwise make (1 - alpha) zero for very short windows, losing the
  // monotonicity property (more energy => never cooler).
  if (one_minus_q30 == 0) one_minus_q30 = 1;
  // gain [C/fJ] = (R/1000) * (1-alpha) / (dt_fs * 1e-15) * 1e-15 J/fJ
  //             = R * (1-alpha) / (1000 * dt_fs), scaled to Q64:
  // r_mk * one_minus <= 2^32 * 2^30 = 2^62; << 34 fits in 128 bits.
  gain_q64_ = static_cast<std::uint64_t>(
      ((u128(params.r_mk_per_w) * one_minus_q30) << 34) / (u128(1000) * dt_fs));
}

void ThermalNode::apply_window(std::uint64_t energy_fj) {
  // Invariant: t >= ambient always (injection >= 0, decay is a pure
  // contraction toward ambient), so the delta stays unsigned. Both terms
  // round to nearest, so neither biases the trajectory: a floored decay
  // would remove up to one ulp per window more than the model does.
  const std::uint64_t delta_q32 = static_cast<std::uint64_t>(t_q32_ - amb_q32_);
  const std::uint64_t decayed_q32 = static_cast<std::uint64_t>(
      (u128(delta_q32) * alpha_q30_ + (u128(1) << 29)) >> 30);
  // energy * gain is Q64; >> 32 lands on Q32.
  const std::uint64_t inject_q32 = static_cast<std::uint64_t>(
      (u128(energy_fj) * gain_q64_ + (u128(1) << 31)) >> 32);
  t_q32_ = amb_q32_ + static_cast<std::int64_t>(decayed_q32 + inject_q32);
  if (t_q32_ > peak_q32_) peak_q32_ = t_q32_;
}

}  // namespace secddr::analysis
