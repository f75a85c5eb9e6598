// Dynamic DRAM energy model: maps the command counts the controller
// already tracks (ACT/PRE/RD/WR/REF) plus standby time onto energy, per
// accounting window and per rank.
//
// All energies are integer femtojoules so window totals are exact sums —
// bit-identical across platforms, loop modes, and thread counts, and the
// conservation property (total == Σ count x per-op + cycles x background)
// is an exact integer identity the power test battery asserts.
//
// The defaults approximate a dual-rank DDR4-3200 module from Micron
// IDD-class figures (the same calculator family the paper cites for
// Table II [38]): an ACT/PRE pair ~3nJ rank-wide, a 64B column burst
// ~5nJ including IO, a per-rank REF ~850nJ over tRFC, and ~0.5W of
// standby/background power per rank (0.3nJ per 0.625ns memory cycle).
#pragma once

#include <cstdint>

#include "common/serial.h"

namespace secddr::analysis {

/// Per-operation energies in femtojoules at rank granularity.
struct DramEnergyParams {
  std::uint64_t act_fj = 1'700'000;    ///< ACTIVATE (row open + restore)
  std::uint64_t pre_fj = 1'300'000;    ///< PRECHARGE
  std::uint64_t rd_fj = 4'700'000;     ///< READ burst incl. IO
  std::uint64_t wr_fj = 5'200'000;     ///< WRITE burst incl. IO + termination
  std::uint64_t ref_fj = 850'000'000;  ///< per-rank REFRESH (tRFC)
  /// Standby + leakage per rank per memory-clock cycle.
  std::uint64_t background_fj_per_cycle = 300'000;

  static auto fields(auto& p) {
    return std::tie(p.act_fj, p.pre_fj, p.rd_fj, p.wr_fj, p.ref_fj,
                    p.background_fj_per_cycle);
  }
};
static_assert(serial::lists_all_fields<DramEnergyParams>());

/// DRAM commands issued to one rank during one accounting window.
struct CommandCounts {
  std::uint64_t act = 0;
  std::uint64_t pre = 0;
  std::uint64_t rd = 0;
  std::uint64_t wr = 0;
  std::uint64_t ref = 0;

  static auto fields(auto& c) {
    return std::tie(c.act, c.pre, c.rd, c.wr, c.ref);
  }

  CommandCounts& operator+=(const CommandCounts& o) {
    return serial::accumulate(*this, o);
  }
};
static_assert(serial::lists_all_fields<CommandCounts>());

/// Window energy split by source (fJ).
struct EnergyBreakdown {
  std::uint64_t act_fj = 0;
  std::uint64_t pre_fj = 0;
  std::uint64_t rd_fj = 0;
  std::uint64_t wr_fj = 0;
  std::uint64_t ref_fj = 0;
  std::uint64_t background_fj = 0;

  std::uint64_t total_fj() const {
    return act_fj + pre_fj + rd_fj + wr_fj + ref_fj + background_fj;
  }
  std::uint64_t dynamic_fj() const { return total_fj() - background_fj; }

  static auto fields(auto& e) {
    return std::tie(e.act_fj, e.pre_fj, e.rd_fj, e.wr_fj, e.ref_fj,
                    e.background_fj);
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& o) {
    return serial::accumulate(*this, o);
  }
};
static_assert(serial::lists_all_fields<EnergyBreakdown>());

/// Pure integer counts -> energy mapping (no state).
class EnergyModel {
 public:
  explicit EnergyModel(const DramEnergyParams& params = {})
      : params_(params) {}

  /// Energy one rank consumed over a window of `cycles` memory-clock
  /// cycles in which it received `counts` commands.
  EnergyBreakdown window_energy(const CommandCounts& counts,
                                std::uint64_t cycles) const;

  const DramEnergyParams& params() const { return params_; }

 private:
  DramEnergyParams params_;
};

}  // namespace secddr::analysis
