// Processor-side SecDDR memory controller (functional).
//
// Owns the per-rank E-MAC engines and transaction counters, the data
// encryption engine (AES-XTS by default, counter-mode optional), the data
// MAC engine, and a mirror of each bank's open row. Every line write emits
// ACT (if needed) + WR with E-MAC and encrypted eWCRC; every read emits
// ACT (if needed) + RD and verifies the response MAC. Verification happens
// ONLY here — the DIMM stores MACs but never checks them (§III-A).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/serial.h"
#include "common/types.h"
#include "core/bus.h"
#include "core/dimm.h"
#include "core/emac.h"
#include "crypto/aes_xts.h"
#include "dram/address.h"

namespace secddr::core {

/// Data-encryption scheme of the processor's memory encryption engine.
enum class DataEncryption {
  kXts,  ///< AES-XTS keyed by line address (TME/SEV style)
  kCtr,  ///< counter-mode with per-line write counters
};

/// What the controller detected on an operation.
enum class Violation {
  kNone,
  kMacMismatch,      ///< read MAC verification failed
  kWriteAlert,       ///< device signaled eWCRC mismatch (ALERT_n)
  kDroppedResponse,  ///< read never answered (timeout)
};

const char* to_string(Violation v);

struct ControllerStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t activates = 0;
  std::uint64_t mac_mismatches = 0;
  std::uint64_t write_alerts = 0;
  std::uint64_t dropped_responses = 0;

  std::uint64_t violations() const {
    return mac_mismatches + write_alerts + dropped_responses;
  }

  static auto fields(auto& s) {
    return std::tie(s.reads, s.writes, s.activates, s.mac_mismatches,
                    s.write_alerts, s.dropped_responses);
  }
};
static_assert(serial::lists_all_fields<ControllerStats>());

class MemoryController {
 public:
  /// `enable_ewcrc=false` models plain SecDDR without AI-ECC's address
  /// protection — used by the attack tests to demonstrate why the paper
  /// needs the encrypted eWCRC (§III-B, Fig. 3).
  MemoryController(DataEncryption enc, Bus& bus, Dimm& dimm,
                   std::uint64_t seed, bool enable_ewcrc = true);

  /// Installs the per-rank channel state from attestation (§III-F).
  void install_keys(unsigned rank, const crypto::Key128& kt, std::uint64_t c0);
  bool rank_ready(unsigned rank) const;
  std::uint64_t transaction_counter(unsigned rank) const;

  /// Secure line write; returns the violation observed (if any).
  Violation write_line(Addr addr, const CacheLine& plaintext);

  struct ReadResult {
    Violation violation = Violation::kNone;
    CacheLine data;  ///< decrypted plaintext (valid when violation==kNone)
    bool ok() const { return violation == Violation::kNone; }
  };
  ReadResult read_line(Addr addr);

  const ControllerStats& stats() const { return stats_; }
  Addr capacity() const { return mapping_.geometry().capacity_bytes(); }
  const dram::AddressMapping& mapping() const { return mapping_; }

  /// Mutable controller state (keys excluded — they are fused after
  /// attestation). Snapshot/restore lets the fuzzer reset a session to
  /// its post-attestation pristine state without re-running the signed
  /// key exchange, and is the seed of the serializable-simulator-state
  /// direction in ROADMAP.md.
  struct State {
    std::vector<std::uint64_t> counters;      ///< per-rank Ct
    std::vector<std::uint64_t> cmd_counters;  ///< per-rank CCA pads
    std::vector<std::int64_t> open_row_mirror;
    std::unordered_map<Addr, std::uint64_t> line_counters;
    ControllerStats stats;
  };
  State snapshot_state() const;
  void restore_state(const State& s);

 private:
  void ensure_row_open(const dram::DecodedAddr& d);
  /// Rolls back the CTR-mode per-line write counter after a write the
  /// device rejected (see write_line).
  void revert_line_counter(Addr addr);
  /// §VIII CCCA obfuscation of a column command's fields (no-op unless
  /// the DIMM is configured for it).
  void obfuscate_column_fields(unsigned rank, unsigned& bg, unsigned& bank,
                               unsigned& column);
  CacheLine encrypt(Addr addr, const CacheLine& pt, bool bump_counter);
  CacheLine decrypt(Addr addr, const CacheLine& ct) const;

  DataEncryption enc_;
  Bus& bus_;
  Dimm& dimm_;
  bool ewcrc_enabled_;
  dram::AddressMapping mapping_;

  crypto::AesXts xts_;
  crypto::Aes ctr_aes_;
  MacEngine mac_;
  std::unordered_map<Addr, std::uint64_t> line_counters_;  ///< CTR mode

  std::vector<std::optional<EmacEngine>> rank_channels_;
  std::vector<std::int64_t> open_row_mirror_;  ///< per (rank, bg, bank)

  ControllerStats stats_;
};

}  // namespace secddr::core
