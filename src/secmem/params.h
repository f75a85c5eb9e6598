// Security configuration space of the evaluation (paper §IV-B).
//
// Five primary systems are compared, plus the InvisiMem authenticated
// channel (§VI) and the arity/packing sensitivity sweep (Fig. 8):
//   1. Baseline: 64-ary counter integrity tree + counter-mode encryption
//      (Intel TDX-like; the normalization basis of Figs. 6/10/12).
//   2. SecDDR+CTR: E-MAC/eWCRC replay protection + counter-mode.
//   3. Encrypt-only CTR.
//   4. SecDDR+XTS.
//   5. Encrypt-only XTS.
#pragma once

#include <cstdint>
#include <string>

#include "common/serial.h"

namespace secddr::secmem {

/// Replay-attack-protection mechanism.
enum class Rap {
  kNone,           ///< encrypt-only (integrity assumed, not ensured)
  kIntegrityTree,  ///< N-ary tree walked/updated on counter (or MAC) misses
  kSecDdr,         ///< E-MAC channel + eWCRC (no extra memory traffic)
  kAuthChannel,    ///< InvisiMem-style mutually authenticated channel
};

/// Data encryption mode.
enum class Encryption {
  kCounterMode,  ///< per-line counters stored in memory, cached on chip
  kXts,          ///< AES-XTS: no counters, fixed latency per access
};

/// Parameters of one evaluated configuration.
struct SecurityParams {
  Rap rap = Rap::kIntegrityTree;
  Encryption enc = Encryption::kCounterMode;

  /// Integrity-tree arity (nodes per parent): 8 / 64 / 128 in Fig. 8.
  unsigned tree_arity = 64;
  /// Encryption counters packed per 64B counter line (8 / 64 / 128).
  unsigned counters_per_line = 64;
  /// Hash-Merkle-tree mode (the Fig. 8 "8-ary" design): the tree hashes
  /// data MACs, MACs live in memory lines instead of the ECC chips.
  bool hash_tree_over_macs = false;
  /// MACs ride the ECC pins (TDX/SafeGuard style): no MAC traffic.
  bool macs_in_ecc = true;
  /// Integrity verification happens at all (false for encrypt-only).
  bool verify_mac = true;

  /// Crypto latencies in core cycles (Table I: "40 processor-cycles
  /// encryption and MAC").
  unsigned aes_latency = 40;
  unsigned mac_latency = 40;

  /// Metadata cache capacity (Table I: 128KB). Swept by the ablation
  /// bench to quantify the tree's sensitivity to on-chip metadata reach.
  std::uint64_t metadata_cache_bytes = 128 * 1024;
  unsigned metadata_cache_assoc = 8;

  /// InvisiMem: number of extra MAC computations on the read critical path
  /// (one DIMM-side generate + one processor-side verify).
  unsigned auth_channel_macs = 2;

  /// SecDDR: eWCRC extends the write burst (applied to the DRAM timings by
  /// the harness via Timings::with_ewcrc_burst()).
  bool ewcrc = false;

  std::string name;

  /// Every member but `name`, a label that never affects results.
  static auto fields(auto& p) {
    return std::tie(p.rap, p.enc, p.tree_arity, p.counters_per_line,
                    p.hash_tree_over_macs, p.macs_in_ecc, p.verify_mac,
                    p.aes_latency, p.mac_latency, p.metadata_cache_bytes,
                    p.metadata_cache_assoc, p.auth_channel_macs, p.ewcrc);
  }

  // ---- Named configurations of the paper ----
  static SecurityParams baseline_tree_ctr(unsigned arity = 64,
                                          unsigned counters_per_line = 64);
  static SecurityParams secddr_ctr(unsigned counters_per_line = 64);
  static SecurityParams encrypt_only_ctr(unsigned counters_per_line = 64);
  static SecurityParams secddr_xts();
  static SecurityParams encrypt_only_xts();
  static SecurityParams invisimem(Encryption enc);
  /// Fig. 8's 8-ary hash-based Merkle tree (AES-XTS, MACs in memory).
  static SecurityParams hash_tree8_xts();
};
static_assert(serial::lists_all_fields<SecurityParams>(/*unlisted=*/1));

}  // namespace secddr::secmem
