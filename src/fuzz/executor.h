// Fuzz executor: runs one FuzzInput and classifies the outcome.
//
// Two legs per execution:
//
//  * Functional leg (always): the input's ops drive a live
//    SecureMemorySession with the FaultInjector installed at both
//    attacker positions. The session is attested ONCE per profile (the
//    expensive certified key exchange) and reset to its pristine
//    post-attestation state via snapshot/restore before every run —
//    that is what gives the campaign sweep-runner throughput.
//  * Timing leg (optional): the same ops replayed through a tiny
//    two-channel sim::System, folding per-channel security-engine and
//    DRAM-controller counters into the coverage signature. Bit-identical
//    across the per-cycle / event-driven loops, so signatures are
//    loop-mode independent.
//
// Oracle: the executor maintains the controller's *believed* memory
// image (updated only on writes the controller saw succeed). Verdicts:
//
//   kHarmless   no violation, every OK read returned believed data
//   kDetected   >= 1 violation reported (controller) or device alert on
//               an injected command — the corruption was caught
//   kCorrected  no violation/mismatch, but on-device SEC-DED corrected
//               at least one array fault
//   kAccounted  an OK read returned wrong data before any violation was
//               flagged, but the input exercised a weakness the profile
//               explicitly models (accounted_escape)
//   kEscape     an OK read returned data the controller never wrote,
//               BEFORE any controller-observed violation, and no
//               accounting applies — silent acceptance, the failure the
//               whole campaign hunts. (Wrong data served after a flagged
//               violation classifies as detected: a real controller
//               halts the channel at its first violation.)
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "fuzz/fuzz.h"

namespace secddr::fuzz {

enum class Verdict : std::uint8_t {
  kHarmless,
  kDetected,
  kCorrected,
  kAccounted,
  kEscape,
};

const char* to_string(Verdict v);

struct Outcome {
  Verdict verdict = Verdict::kHarmless;
  std::uint64_t signature = 0;  ///< coverage signature (FNV over counters)
  std::uint32_t violations = 0;  ///< controller-reported + injected alerts
  std::uint32_t mismatches = 0;  ///< OK reads with non-believed data
  /// Mismatches that happened while the controller had seen ZERO
  /// violations — truly silent acceptance (drives escape/accounted).
  std::uint32_t silent_mismatches = 0;
  std::uint32_t faults_fired = 0;
  bool timing_ok = true;  ///< timing leg ran within its cycle budget
  std::string note;       ///< first mismatch, for escape reports
};

struct ExecutorOptions {
  /// Fold the timing-leg per-channel counters into the signature.
  bool timing_leg = false;
  /// Timing-leg loop mode (signatures must not depend on it — pinned by
  /// the FuzzCampaign loop-mode tests).
  bool event_driven = true;
};

class Executor {
 public:
  explicit Executor(const ExecutorOptions& opts = {});
  ~Executor();

  /// Runs one input. Deterministic: same input + options => same Outcome.
  Outcome run(const FuzzInput& in);

  /// The fixed tiny geometry every fuzz session uses.
  static const dram::Geometry& functional_geometry();
  /// Line capacity (bytes) of that geometry — mutated trace addresses
  /// are folded into this range.
  static std::uint64_t functional_capacity();

  /// Serializes the master session's pristine (post-attestation) snapshot
  /// for `profile` — the state every run() resets to. Map keys are sorted
  /// before encoding, so the bytes are deterministic across processes and
  /// round-trip through the fleet checkpoint codec bit-exactly. Attests
  /// the profile first if this executor has not touched it yet.
  std::vector<std::uint8_t> master_snapshot(unsigned profile);
  /// Replaces the profile's pristine snapshot with a previously exported
  /// one (same profile, possibly a different process). Subsequent run()
  /// calls reset the session to the imported state, so campaign
  /// signatures match the exporting executor's bit-for-bit. Throws
  /// std::runtime_error on a malformed or geometry-mismatched payload.
  void set_master_snapshot(unsigned profile, const std::uint8_t* data,
                           std::size_t n);

  const ExecutorOptions& options() const { return opts_; }

 private:
  struct Master;
  Master& master(unsigned profile);

  ExecutorOptions opts_;
  std::array<std::unique_ptr<Master>, kProfileCount> masters_;
};

}  // namespace secddr::fuzz
