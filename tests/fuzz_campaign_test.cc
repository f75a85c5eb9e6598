// Campaign-level properties of the adversarial fuzzer (`fuzz` label):
//
//  * a bounded default campaign finds ZERO undetected corruptions — the
//    PR 6 acceptance criterion (the full >= 10k-trial run is
//    bench/fuzz_campaign; this is the CI-bounded version);
//  * bit-reproducibility: same seed => byte-identical campaign log and
//    identical coverage, across worker counts and the per-cycle and
//    event-driven timing-leg loops, plus executor-level snapshot/restore
//    determinism through epoch-advanced timing sessions;
//  * the checked-in regression traces under tests/regress/ — one per
//    engine bug the campaign forced — replay as detected-with-no-silent-
//    mismatch. Each would fail against the pre-fix engine: the first two
//    replayed as silent escapes, the third returned garbled plaintext
//    under a verifying MAC.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "fleet/checkpoint.h"
#include "fuzz/campaign.h"

namespace secddr::fuzz {
namespace {

CampaignOptions bounded(std::uint64_t trials, unsigned jobs = 1) {
  CampaignOptions o;
  o.trials = trials;
  o.seed = 0x5ecdd6;
  o.jobs = jobs;
  return o;
}

TEST(FuzzCampaign, BoundedCampaignFindsNoEscapes) {
  Campaign c(bounded(1500));
  const CampaignResult res = c.run();
  EXPECT_TRUE(res.clean()) << res.log;
  EXPECT_GE(res.executions, 1500u);
  EXPECT_GT(res.coverage, 100u);  // coverage guidance is actually working
  EXPECT_GT(res.verdicts[static_cast<int>(Verdict::kDetected)], 0u);
}

TEST(FuzzCampaign, LogIsByteIdenticalAcrossWorkerCounts) {
  const CampaignResult a = Campaign(bounded(400, /*jobs=*/1)).run();
  const CampaignResult b = Campaign(bounded(400, /*jobs=*/4)).run();
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.verdicts, b.verdicts);
}

TEST(FuzzCampaign, LogIsByteIdenticalAcrossTimingLoopModes) {
  // Timing leg on: the coverage signature folds in per-channel engine +
  // DRAM counters, which are bit-identical across the per-cycle and
  // event-driven loops — so the campaign transcript cannot differ.
  CampaignOptions per_cycle = bounded(150);
  per_cycle.exec.timing_leg = true;
  per_cycle.exec.event_driven = false;

  CampaignOptions event_driven = per_cycle;
  event_driven.exec.event_driven = true;

  const CampaignResult a = Campaign(per_cycle).run();
  const CampaignResult b = Campaign(event_driven).run();
  EXPECT_EQ(a.log, b.log);
  EXPECT_TRUE(a.clean()) << a.log;
}

TEST(FuzzCampaign, ExecutorDeterministicAfterRestoreWithEpochTiming) {
  // The executor snapshots each profile's attested master session and
  // restores it before every run; with the epoch-decoupled timing leg a
  // run advances the backend through multi-cycle windows, so this checks
  // restore lands the simulator in a state from which re-running an
  // earlier input reproduces its Outcome bit-for-bit — across loop modes
  // too.
  Mutator m(0xEB0C);
  const FuzzInput first = m.random_input();
  FuzzInput second = m.random_input();
  for (int k = 0; k < 20; ++k) m.mutate(&second);

  ExecutorOptions epoch;
  epoch.timing_leg = true;
  epoch.event_driven = true;
  Executor ex(epoch);
  const Outcome before = ex.run(first);
  ex.run(second);  // interleaved input advances + restores the sessions
  const Outcome after = ex.run(first);
  EXPECT_EQ(before.verdict, after.verdict);
  EXPECT_EQ(before.signature, after.signature);
  EXPECT_EQ(before.violations, after.violations);
  EXPECT_EQ(before.mismatches, after.mismatches);
  EXPECT_EQ(before.silent_mismatches, after.silent_mismatches);
  EXPECT_EQ(before.faults_fired, after.faults_fired);

  // The same inputs through the per-cycle serial reference leg: the
  // signature folds per-channel timing counters, so equality here is the
  // executor-level bit-identity gate for the epoch path.
  ExecutorOptions serial;
  serial.timing_leg = true;
  serial.event_driven = false;
  Executor ref(serial);
  const Outcome ref_first = ref.run(first);
  EXPECT_EQ(ref_first.signature, before.signature);
  EXPECT_EQ(ref_first.verdict, before.verdict);
}

TEST(FuzzCampaign, MasterSnapshotRoundTripsThroughCheckpointInFreshProcess) {
  // The master-session snapshot (the state every run() resets to) must
  // survive serialization through the fleet checkpoint container into a
  // FRESH PROCESS: the child imports the bytes the parent exported, re-
  // exports them (byte identity proves the codec is lossless, including
  // unordered_map content independent of per-process iteration order),
  // and replays the same input — its campaign signature must match the
  // parent's bit-for-bit even though the child runs the per-cycle
  // timing leg against the parent's event-driven one.
  Mutator m(0xEB0C);
  const FuzzInput input = m.random_input();

  ExecutorOptions epoch;
  epoch.timing_leg = true;
  epoch.event_driven = true;
  Executor ex(epoch);
  const Outcome parent_out = ex.run(input);
  const std::vector<std::uint8_t> payload = ex.master_snapshot(input.profile);
  ASSERT_FALSE(payload.empty());

  // A truncated payload must be rejected, never half-applied.
  EXPECT_THROW(
      ex.set_master_snapshot(input.profile, payload.data(),
                             payload.size() / 2),
      std::runtime_error);

  const std::string path =
      testing::TempDir() + "executor_master_snapshot.ckpt";
  fleet::checkpoint::write_file(path, /*config_hash=*/input.profile, payload);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: everything before _exit; no gtest assertions propagate.
    ::close(fds[0]);
    std::uint8_t reply[15] = {0};
    try {
      std::uint64_t hash = 0;
      const std::vector<std::uint8_t> restored =
          fleet::checkpoint::read_file(path, &hash);
      ExecutorOptions serial_ref;
      serial_ref.timing_leg = true;
      serial_ref.event_driven = false;
      Executor fresh(serial_ref);
      fresh.set_master_snapshot(input.profile, restored.data(),
                                restored.size());
      const bool reexport_identical =
          fresh.master_snapshot(input.profile) == restored;
      const Outcome out = fresh.run(input);
      reply[0] = hash == input.profile ? 1 : 0;
      store_le64(reply + 1, out.signature);
      reply[9] = static_cast<std::uint8_t>(out.verdict);
      reply[10] = static_cast<std::uint8_t>(out.violations);
      reply[11] = static_cast<std::uint8_t>(out.mismatches);
      reply[12] = static_cast<std::uint8_t>(out.silent_mismatches);
      reply[13] = static_cast<std::uint8_t>(out.faults_fired);
      reply[14] = reexport_identical ? 1 : 0;
    } catch (const std::exception&) {
      // reply stays zeroed; the parent's assertions report the failure.
    }
    std::size_t off = 0;
    while (off < sizeof reply) {
      const ssize_t n = ::write(fds[1], reply + off, sizeof reply - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::uint8_t reply[15] = {0};
  std::size_t off = 0;
  while (off < sizeof reply) {
    const ssize_t n = ::read(fds[0], reply + off, sizeof reply - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(off, sizeof reply) << "child died before replying";

  EXPECT_EQ(reply[0], 1) << "container config hash did not round-trip";
  EXPECT_EQ(load_le64(reply + 1), parent_out.signature);
  EXPECT_EQ(reply[9], static_cast<std::uint8_t>(parent_out.verdict));
  EXPECT_EQ(reply[10], static_cast<std::uint8_t>(parent_out.violations));
  EXPECT_EQ(reply[11], static_cast<std::uint8_t>(parent_out.mismatches));
  EXPECT_EQ(reply[12],
            static_cast<std::uint8_t>(parent_out.silent_mismatches));
  EXPECT_EQ(reply[13], static_cast<std::uint8_t>(parent_out.faults_fired));
  EXPECT_EQ(reply[14], 1) << "import -> re-export was not byte-identical";
  std::remove(path.c_str());
}

TEST(FuzzCampaign, SameSeedSameLogAcrossRepeats) {
  const CampaignResult a = Campaign(bounded(300)).run();
  const CampaignResult b = Campaign(bounded(300)).run();
  EXPECT_EQ(a.log, b.log);
  // A different seed must explore differently (sanity check that the
  // seed actually steers the campaign).
  CampaignOptions other = bounded(300);
  other.seed = 0xfeedface;
  EXPECT_NE(Campaign(other).run().log, a.log);
}

// ---------------------------------------------------------------------------
// Checked-in regression traces: the PR 6 bugfix sweep.
// ---------------------------------------------------------------------------

class RegressReplay : public testing::TestWithParam<const char*> {};

TEST_P(RegressReplay, ReplaysDetectedWithNoSilentMismatch) {
  const std::string stem = std::string(SECDDR_REGRESS_DIR) + "/" + GetParam();
  const Outcome o = replay_saved(stem);
  // Pre-fix engine: mask_alert_stale and drop_inject_resync replayed as
  // silent ESCAPES (stale data under a verifying MAC, channel never
  // flagged); ctr_alert_garble replayed with mismatches != 0 (keystream
  // garbage under a verifying MAC after an alerting write). The fixed
  // engine detects all three with a consistent memory image.
  EXPECT_EQ(o.verdict, Verdict::kDetected)
      << GetParam() << ": " << to_string(o.verdict) << " " << o.note;
  EXPECT_EQ(o.mismatches, 0u) << GetParam() << ": " << o.note;
  EXPECT_EQ(o.silent_mismatches, 0u);
  EXPECT_GT(o.faults_fired, 0u) << GetParam() << ": plan never triggered";
}

INSTANTIATE_TEST_SUITE_P(Pr6BugfixSweep, RegressReplay,
                         testing::Values("mask_alert_stale",
                                         "drop_inject_resync",
                                         "ctr_alert_garble"));

}  // namespace
}  // namespace secddr::fuzz
