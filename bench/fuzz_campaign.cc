// Coverage-guided adversarial campaign runner (ISSUE 6 tentpole driver).
//
//   ./fuzz_campaign                 run SECDDR_FUZZ_TRIALS mutated
//                                   executions (default 10000) and write
//                                   BENCH_fuzz.json; exit 1 on any escape
//   ./fuzz_campaign --emit-regress DIR
//                                   regenerate the checked-in regression
//                                   inputs (tests/regress/) from their
//                                   canonical definitions
//
// All knobs are environment variables — see src/fuzz/campaign.h. The
// campaign seed is printed first so any failure reproduces exactly:
//     SECDDR_FUZZ_SEED=<seed> ./fuzz_campaign
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "json.h"

using namespace secddr;

namespace {

/// The canonical escape inputs of the PR 6 bugfix sweep. Each one was
/// found by the campaign against the pre-fix engine, minimized, and
/// pinned under tests/regress/; regress_replay_test replays the
/// checked-in copies and fuzz_campaign --emit-regress regenerates them.
struct RegressDef {
  const char* name;
  fuzz::FuzzInput input;
};

std::vector<RegressDef> regress_defs() {
  using fuzz::FaultClass;
  const auto ops = [](std::initializer_list<sim::TraceRecord> l) {
    return std::vector<sim::TraceRecord>(l);
  };
  std::vector<RegressDef> defs;
  // Masked ALERT_n + corrupted write: the device rejects the burst; a
  // man-in-the-middle hides the alert. Pre-fix, the device consumed the
  // write counter anyway, so the channel stayed synchronized and the
  // later read returned the STALE line with a valid MAC — silent.
  defs.push_back({"mask_alert_stale",
                  {0,
                   {{FaultClass::kFlipWriteData, 2, 5, 0},
                    {FaultClass::kMaskAlert, 1, 0, 0}},
                   ops({{0, true, 0x0}, {0, true, 0x0}, {0, false, 0x0}})}});
  // Dropped write + forged-write injection: dropping a write desyncs the
  // counters (controller ahead by one write); pre-fix, an injected forged
  // burst — rejected by eWCRC — still consumed a device counter and
  // RE-SYNCHRONIZED the channel, turning the next read into a silent
  // stale-data acceptance.
  defs.push_back({"drop_inject_resync",
                  {0,
                   {{FaultClass::kDropWrite, 2, 0, 0},
                    {FaultClass::kInjectForgedWrite, 1, 9, 0}},
                   ops({{0, true, 0x0}, {0, true, 0x0}, {0, false, 0x0}})}});
  // CTR-mode rejected write: encrypt bumped the per-line write counter
  // before the outcome was known; pre-fix, an alerting write left the
  // line undecryptable — the next read verified (MAC covers ciphertext)
  // but returned keystream garbage as plaintext.
  defs.push_back({"ctr_alert_garble",
                  {1,
                   {{FaultClass::kFlipWriteData, 2, 3, 0}},
                   ops({{0, true, 0x0}, {0, true, 0x0}, {0, false, 0x0}})}});
  return defs;
}

int emit_regress(const std::string& dir) {
  int rc = 0;
  for (const RegressDef& d : regress_defs()) {
    std::string err;
    if (fuzz::save_input(d.input, dir + "/" + d.name, &err)) {
      std::printf("wrote %s/%s.{fplan,strace}\n", dir.c_str(), d.name);
    } else {
      std::fprintf(stderr, "FAILED %s: %s\n", d.name, err.c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--emit-regress") == 0)
    return emit_regress(argv[2]);
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--emit-regress DIR]\n", argv[0]);
    return 2;
  }

  const fuzz::CampaignOptions opts = fuzz::CampaignOptions::from_env();
  std::printf("=== SecDDR adversarial fuzz campaign ===\n");
  std::printf("seed=0x%llx trials=%llu jobs=%u timing_leg=%d\n",
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(opts.trials), opts.jobs,
              opts.exec.timing_leg ? 1 : 0);
  std::fflush(stdout);

  fuzz::Campaign campaign(opts);
  const auto t0 = std::chrono::steady_clock::now();
  const fuzz::CampaignResult res = campaign.run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double execs_per_sec = secs > 0 ? res.executions / secs : 0;

  std::fputs(res.log.c_str(), stdout);
  std::printf("\n%llu executions in %.2fs (%.0f execs/sec)\n",
              static_cast<unsigned long long>(res.executions), secs,
              execs_per_sec);
  std::printf("corpus=%zu coverage=%zu escapes=%zu\n", res.corpus_size,
              res.coverage, res.escapes.size());

  // Machine-checkable trajectory record (ROADMAP: BENCH_*.json series).
  bench::JsonObject json;
  json.field("bench", "fuzz_campaign");
  json.field("seed", opts.seed);
  json.field("executions", res.executions);
  json.field("execs_per_sec", execs_per_sec);
  json.field("corpus", res.corpus_size);
  json.field("coverage", res.coverage);
  json.field("harmless", res.verdicts[0]);
  json.field("detected", res.verdicts[1]);
  json.field("corrected", res.verdicts[2]);
  json.field("accounted", res.verdicts[3]);
  json.field("escapes", res.verdicts[4]);
  bench::write_json("SECDDR_FUZZ_JSON", "BENCH_fuzz.json", json.done());

  if (!res.clean()) {
    std::fprintf(stderr,
                 "\nFAIL: %zu undetected corruption(s); reproduce with "
                 "SECDDR_FUZZ_SEED=0x%llx\n",
                 res.escapes.size(),
                 static_cast<unsigned long long>(opts.seed));
    return 1;
  }
  std::printf("PASS: no undetected corruptions\n");
  return 0;
}
