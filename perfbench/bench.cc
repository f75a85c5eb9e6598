// Repository benchmark: host throughput of the SecDDR simulator and of the
// adversarial fuzz campaign, with a traced per-layer split of the
// event-driven simulation loop.
//
//   secddr_perfbench --workload W --seed N --seconds S --trace 0|1
//                    [--digests FILE] [--record]
//
// Workloads are fixed work, run to completion on one thread, warmup
// included:
//   membound      mcf, lbm, pr, omnetpp x the five Fig. 6 configs on the
//                 Table I system (4 cores, 1 DDR4-3200 channel)
//   compute       exchange2, povray, perlbench, x264, leela, gcc (LLC
//                 MPKI <= 4) x the same configs and system
//   membound-4ch  the membound points at 4 channels, same total capacity
//   fuzz          a 5000-trial fuzz::Campaign, 1 job, timing leg off
// The seed shifts the sim workloads' per-workload trace seeds (0 keeps
// the suite's own) and is the fuzz campaign seed.
//
// --trace 0 repeats the workload while another pass fits in S seconds and
// reports throughput: simulated instructions (summed over cores and
// points, warmup included), or fuzz executions, per host second of the
// sum over chunks (System::step slices, campaign batches) of each chunk's
// fastest pass; successive passes run on successive allowed CPUs. setup_s
// is the median time to build a pass's traces and Systems (sampled
// several times a pass), or an executor with every profile's master
// session attested; peak_rss_mb is the process's. The fuzz passes replay
// the campaign's loop on a pre-attested executor (replay_campaign) so
// that attestation stays out of the throughput; Campaign::run itself
// runs once, for the gate.
// --trace 1 alternates untraced passes with traced replicas of the same
// points (traced_loop.h) and reports the per-layer split. Every traced run
// also probes the other half once (two sim points on `fuzz`, a 500-trial
// campaign on the sim workloads), so each per-layer metric is measured on
// every workload.
//
// Every run checks its results. Each point's fleet::checkpoint::
// encode_result bytes and the campaign's log and coverage are digested;
// at seed 0 they must match FILE (written by --record), at any other seed
// the per-cycle loop (sim) or a 2-job campaign (fuzz) must reproduce them.
// Repeated passes must agree, traced replicas must reproduce System::run,
// replays must match the campaign's executions, coverage and verdicts,
// and no fuzz input may escape. Each mismatch or escape is a failed
// operation and makes the exit code 1.
//
// The configs are built here, not through bench/harness.h: this binary
// reads no environment variable, so no SECDDR_* knob can change what it
// measures. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/checkpoint.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "fuzz/executor.h"
#include "fuzz/mutate.h"
#include "secmem/params.h"
#include "sim/system.h"
#include "traced_loop.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

namespace {

using namespace secddr;
using perfbench::LayerProfile;
using perfbench::Span;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kInstructions = 20000;  ///< measured, per core
constexpr std::uint64_t kWarmup = 75000;        ///< per core
constexpr Cycle kMaxCycles = 4'000'000'000ull;
constexpr unsigned kCores = 4;
constexpr std::uint64_t kCoreStrideBytes = 2ull << 30;
constexpr std::uint64_t kDataBytes = 8ull << 30;  ///< kCores x stride
constexpr std::uint64_t kFuzzTrials = 5000;
constexpr std::uint64_t kFuzzProbeTrials = 500;
constexpr std::uint64_t kRecordedSeed = 0;
constexpr std::size_t kMinSetupSamples = 5;  ///< behind setup_s's median
/// Sim set-up takes about 1 ms a pass, so each pass samples it this many
/// times (under 1% of a pass): the median then spreads over the run.
constexpr std::size_t kSimSetupsPerPass = 16;
/// Fuzz set-up (about 2 s) costs about three replays, so a fresh executor
/// is attested every kFuzzPassesPerSetup passes and the passes in between
/// replay on it: the replays then get about half of the run.
constexpr std::size_t kFuzzPassesPerSetup = 3;
constexpr std::size_t kCampaignBatch = 64;  ///< fuzz::Campaign's batch size
/// System::step slice timed as one chunk (about 20 ms of mcf+tree64).
constexpr Cycle kSliceCycles = 20000;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Moves the calling thread to the next allowed CPU on each next() and
/// restores its affinity when destroyed. Load from other tenants of the
/// host differs between cores and shifts over seconds to minutes, so
/// passes spread over every core give each chunk's fastest pass more
/// independent chances than passes on one core.
class CpuRotation {
 public:
  CpuRotation() {
    ok_ = sched_getaffinity(0, sizeof original_, &original_) == 0;
    for (int c = 0; ok_ && c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (ok_) sched_setaffinity(0, sizeof original_, &original_);
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_{};
  bool ok_ = false;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Repeats `pass` while another pass is expected to end within `seconds`
/// of `start` (judged by the longest pass so far); runs it at least once.
/// Returns the number of passes.
template <typename Pass>
std::size_t repeat_within(Clock::time_point start, double seconds, Pass pass) {
  std::size_t passes = 0;
  double longest = 0;
  do {
    const auto t0 = Clock::now();
    pass(passes++);
    longest = std::max(longest, since(t0));
  } while (since(start) + longest <= seconds);
  return passes;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string hex_digest(const std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string hex_digest(const std::vector<std::uint8_t>& bytes) {
  return hex_digest(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- options ----------------------------------------------------------

const char* const kWorkloads[] = {"membound", "compute", "membound-4ch",
                                  "fuzz"};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
  std::string digests;
  bool record = false;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "error: %s\nusage: secddr_perfbench --workload "
               "membound|compute|membound-4ch|fuzz --seed N --seconds S "
               "--trace 0|1 [--digests FILE] [--record]\n",
               what.c_str());
  std::exit(2);
}

/// Whole-string unsigned decimal: no sign, space, base prefix or suffix.
std::uint64_t parse_u64(const std::string& flag, std::string_view s,
                        std::uint64_t max) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size() || v > max)
    usage_error(flag + " '" + std::string(s) +
                "' is not an integer in [0, " + std::to_string(max) + "]");
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      o.record = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--digests")
      usage_error("unknown argument '" + flag + "'");
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    if (!seen.emplace(flag, argv[++i]).second)
      usage_error(flag + " given twice");
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (!seen.count(required))
      usage_error(std::string("missing ") + required);
  o.workload = seen["--workload"];
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads))
    usage_error("unknown workload '" + o.workload + "'");
  o.seed = parse_u64("--seed", seen["--seed"], 0xFFFFFFFFull);
  o.seconds = static_cast<unsigned>(parse_u64("--seconds", seen["--seconds"], 3600));
  if (o.seconds == 0) usage_error("--seconds must be at least 1");
  o.trace = parse_u64("--trace", seen["--trace"], 1) == 1;
  o.digests = seen.count("--digests") ? seen["--digests"] : "";
  if ((o.record || o.seed == kRecordedSeed) && o.digests.empty())
    usage_error("seed " + std::to_string(kRecordedSeed) +
                " and --record need --digests FILE");
  if (o.record && o.seed != kRecordedSeed)
    usage_error("--record needs --seed " + std::to_string(kRecordedSeed));
  return o;
}

// --- sim workloads ----------------------------------------------------

struct SimPoint {
  std::string name;  ///< "<workload>/<config>"
  workloads::WorkloadDesc desc;
  secmem::SecurityParams sec;
  unsigned channels = 1;
};

std::vector<SimPoint> sim_points(const std::vector<const char*>& names,
                                 unsigned channels, std::uint64_t seed) {
  using secmem::SecurityParams;
  const std::pair<const char*, SecurityParams> configs[] = {
      {"tree64+ctr", SecurityParams::baseline_tree_ctr()},
      {"secddr+ctr", SecurityParams::secddr_ctr()},
      {"enc-only+ctr", SecurityParams::encrypt_only_ctr()},
      {"secddr+xts", SecurityParams::secddr_xts()},
      {"enc-only+xts", SecurityParams::encrypt_only_xts()},
  };
  std::vector<SimPoint> points;
  for (const char* name : names) {
    workloads::WorkloadDesc desc = *workloads::find(name);
    // Suite seeds are 101..129, so shifts of 1000 never collide.
    desc.seed += 1000 * seed;
    for (const auto& [cfg, sec] : configs)
      points.push_back({std::string(name) + "/" + cfg, desc, sec, channels});
  }
  return points;
}

std::vector<SimPoint> workload_points(const std::string& workload,
                                      std::uint64_t seed) {
  static const std::vector<const char*> membound = {"mcf", "lbm", "pr",
                                                    "omnetpp"};
  static const std::vector<const char*> compute = {
      "exchange2", "povray", "perlbench", "x264", "leela", "gcc"};
  if (workload == "membound") return sim_points(membound, 1, seed);
  if (workload == "membound-4ch") return sim_points(membound, 4, seed);
  if (workload == "compute") return sim_points(compute, 1, seed);
  // The fuzz workload's sim probe: the heaviest membound point and the
  // lightest compute point.
  return {sim_points({"mcf"}, 1, seed).front(),
          sim_points({"exchange2"}, 1, seed).front()};
}

/// Table I system: 4 cores, DDR4-3200, `channels` channels sharing the
/// paper's 2:1 capacity:data headroom, mem_threads 1, power off.
sim::SystemConfig system_config(const SimPoint& p, bool event_driven) {
  sim::SystemConfig cfg;
  cfg.mem.cores = kCores;
  cfg.security = p.sec;
  cfg.data_bytes = kDataBytes;
  cfg.geometry.channels = p.channels;
  cfg.event_driven = event_driven;
  while (cfg.geometry.rows_per_bank > 1 &&
         cfg.geometry.capacity_bytes() / 2 >= 2 * cfg.data_bytes)
    cfg.geometry.rows_per_bank /= 2;
  while (cfg.geometry.capacity_bytes() < 2 * cfg.data_bytes)
    cfg.geometry.rows_per_bank *= 2;
  return cfg;
}

struct PointTraces {
  explicit PointTraces(const workloads::WorkloadDesc& desc) {
    for (unsigned c = 0; c < kCores; ++c) {
      owned.push_back(
          std::make_unique<workloads::SyntheticTrace>(desc, c, kCoreStrideBytes));
      ptrs.push_back(owned.back().get());
    }
  }
  std::vector<std::unique_ptr<sim::TraceSource>> owned;
  std::vector<sim::TraceSource*> ptrs;
};

struct SimPass {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t instructions = 0;  ///< warmup + measured, all cores/points
  std::vector<std::vector<std::uint8_t>> results;  ///< encode_result bytes
  std::vector<double> ipc;
  std::vector<double> chunk_s;  ///< each System::step slice, in order
  bool hit_limit = false;
};

SimPass run_sim_pass(const std::vector<SimPoint>& points, bool event_driven) {
  SimPass ps;
  for (const SimPoint& p : points) {
    const auto t0 = Clock::now();
    PointTraces traces(p.desc);
    sim::System sys(system_config(p, event_driven), traces.ptrs);
    const auto t1 = Clock::now();
    // System::run in slices (bit-identical to one call) so that the
    // throughput can take each slice's fastest pass.
    sys.begin(kInstructions, kMaxCycles, kWarmup);
    for (bool more = true; more;) {
      const auto c0 = Clock::now();
      more = sys.step(kSliceCycles);
      ps.chunk_s.push_back(since(c0));
    }
    const sim::RunResult r = sys.result();
    ps.setup_s += std::chrono::duration<double>(t1 - t0).count();
    ps.run_s += since(t1);
    for (const sim::CoreStats& c : r.cores)
      ps.instructions += kWarmup + c.instructions;
    ps.hit_limit = ps.hit_limit || r.hit_cycle_limit;
    ps.results.push_back(fleet::checkpoint::encode_result(r));
    ps.ipc.push_back(r.total_ipc);
  }
  return ps;
}

/// Set-up alone: builds every point's traces and System, then drops them.
double sim_setup_only(const std::vector<SimPoint>& points) {
  double s = 0;
  for (const SimPoint& p : points) {
    const auto t0 = Clock::now();
    PointTraces traces(p.desc);
    sim::System sys(system_config(p, true), traces.ptrs);
    s += since(t0);
  }
  return s;
}

// --- fuzz workload ----------------------------------------------------

fuzz::CampaignOptions campaign_options(std::uint64_t seed, std::uint64_t trials,
                                       unsigned jobs) {
  fuzz::CampaignOptions o;
  o.trials = trials;
  o.seed = seed;
  o.jobs = jobs;
  return o;  // o.exec: timing leg off
}

/// The campaign's set-up: an executor with every profile's master session
/// attested (the certified key exchange each campaign worker performs).
std::unique_ptr<fuzz::Executor> attested_executor() {
  auto ex = std::make_unique<fuzz::Executor>();
  for (unsigned p = 0; p < fuzz::kProfileCount; ++p) ex->master_snapshot(p);
  return ex;
}

struct Replay {
  std::uint64_t executions = 0;
  std::uint64_t detected = 0;
  std::uint64_t escapes = 0;
  std::size_t coverage = 0;
  Span exec;    ///< Executor::run (traced replays only)
  Span mutate;  ///< Mutator::mutate (traced replays only)
  std::vector<double> chunk_s;  ///< the seed corpus, then each batch
};

/// fuzz::Campaign::run's input stream on an already attested executor:
/// the same seed corpus, parent choice, batches generated against the
/// corpus at batch start and in-order merge, so it executes the
/// campaign's inputs and ends with its coverage (checked by the caller).
/// Campaign::run attests its executors inside the call, which is why the
/// timed workload replays its loop instead. Left out: escape
/// minimization and the text log.
Replay replay_campaign(fuzz::Executor& ex, std::uint64_t seed,
                       std::uint64_t trials, bool traced) {
  Replay rp;
  fuzz::Mutator mutator(seed);
  fuzz::Corpus corpus;
  const auto execute = [&](const fuzz::FuzzInput& in) {
    const auto t0 = traced ? Clock::now() : Clock::time_point{};
    const fuzz::Outcome o = ex.run(in);
    if (traced) {
      rp.exec.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0).count();
      ++rp.exec.calls;
    }
    ++rp.executions;
    rp.detected += o.verdict == fuzz::Verdict::kDetected;
    if (o.verdict == fuzz::Verdict::kEscape) {
      ++rp.escapes;
      std::printf("ESCAPE: %s\n", o.note.c_str());
    }
    return o.signature;
  };
  auto c0 = Clock::now();
  for (const fuzz::FuzzInput& in : fuzz::seed_corpus())
    corpus.add_if_new(in, execute(in));
  rp.chunk_s.push_back(since(c0));
  std::vector<fuzz::FuzzInput> batch;
  std::vector<std::uint64_t> signatures;
  for (std::uint64_t done = 0; done < trials;) {
    c0 = Clock::now();
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kCampaignBatch, trials - done));
    batch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      fuzz::FuzzInput in;
      if (corpus.size() > 0 && mutator.rng().chance(0.85))
        in = corpus[mutator.rng().next_below(corpus.size())];
      else
        in = mutator.random_input();
      const auto t0 = traced ? Clock::now() : Clock::time_point{};
      mutator.mutate(&in);
      if (traced) {
        rp.mutate.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t0).count();
        ++rp.mutate.calls;
      }
      batch.push_back(std::move(in));
    }
    signatures.clear();
    for (const fuzz::FuzzInput& in : batch) signatures.push_back(execute(in));
    for (std::size_t i = 0; i < n; ++i) corpus.add_if_new(batch[i], signatures[i]);
    done += n;
    rp.chunk_s.push_back(since(c0));
  }
  rp.coverage = corpus.coverage();
  return rp;
}

/// True when a replay did the work of the campaign it replays.
bool replay_matches(const Replay& rp, const fuzz::CampaignResult& c) {
  const std::uint64_t detected =
      c.verdicts[static_cast<std::size_t>(fuzz::Verdict::kDetected)];
  if (rp.executions == c.executions && rp.coverage == c.coverage &&
      rp.detected == detected)
    return true;
  std::printf("MISMATCH replayed campaign: %llu executions, coverage %zu, "
              "%llu detected; Campaign::run: %llu, %zu, %llu\n",
              static_cast<unsigned long long>(rp.executions), rp.coverage,
              static_cast<unsigned long long>(rp.detected),
              static_cast<unsigned long long>(c.executions), c.coverage,
              static_cast<unsigned long long>(detected));
  return false;
}

// --- correctness gate -------------------------------------------------

/// (key, value) pairs in workload order: one encode_result digest per
/// sim point, or the campaign's log digest and coverage.
using Digests = std::vector<std::pair<std::string, std::string>>;

Digests sim_digests(const std::vector<SimPoint>& points, const SimPass& ps) {
  Digests d;
  for (std::size_t i = 0; i < points.size(); ++i)
    d.emplace_back(points[i].name, hex_digest(ps.results[i]));
  return d;
}

Digests fuzz_digests(const fuzz::CampaignResult& res) {
  return {{"log", hex_digest(res.log)}, {"coverage", std::to_string(res.coverage)}};
}

/// Counts the entries of `got` that differ from `want` (or are missing
/// from it) and prints each.
std::uint64_t count_mismatches(const Digests& got, const Digests& want,
                               const char* against) {
  std::map<std::string, std::string> ref(want.begin(), want.end());
  std::uint64_t bad = 0;
  for (const auto& [key, value] : got) {
    const auto it = ref.find(key);
    if (it != ref.end() && it->second == value) continue;
    ++bad;
    std::printf("MISMATCH %s: got %s, %s %s\n", key.c_str(), value.c_str(),
                against, it == ref.end() ? "(missing)" : it->second.c_str());
  }
  return bad;
}

/// Digest file lines: "<workload> <key> <value>"; '#' starts a comment.
Digests read_recorded(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  Digests d;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, key, value, extra;
    if (!(fields >> w >> key >> value) || (fields >> extra))
      throw std::runtime_error(path + ": malformed line '" + line + "'");
    if (w == workload) d.emplace_back(key, value);
  }
  return d;
}

/// Replaces `workload`'s lines in the digest file with `d`.
void write_recorded(const std::string& path, const std::string& workload,
                    const Digests& d) {
  std::vector<std::string> keep;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
      if (line.rfind(workload + " ", 0) != 0) keep.push_back(line);
  }
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : keep) out << line << "\n";
  for (const auto& [key, value] : d)
    out << workload << " " << key << " " << value << "\n";
  if (!out) throw std::runtime_error("cannot write digest file " + path);
}

/// Checks a workload's first-pass digests: against the recorded values
/// at the recorded seed, else (sim) against the per-cycle loop. A fuzz
/// run at another seed has no digest reference; there the check is the
/// replay's agreement with Campaign::run (replay_matches).
/// Returns {compared, mismatched}.
std::pair<std::uint64_t, std::uint64_t> gate(const Options& opt,
                                             const std::vector<SimPoint>& points,
                                             const Digests& got) {
  if (opt.record) {
    write_recorded(opt.digests, opt.workload, got);
    std::printf("recorded %zu digests for %s in %s\n", got.size(),
                opt.workload.c_str(), opt.digests.c_str());
    return {got.size(), 0};
  }
  Digests want;
  const char* against = "recorded";
  if (opt.seed == kRecordedSeed) {
    want = read_recorded(opt.digests, opt.workload);
  } else if (opt.workload == "fuzz") {
    return {0, 0};
  } else {
    want = sim_digests(points, run_sim_pass(points, /*event_driven=*/false));
    against = "per-cycle loop";
  }
  return {got.size(), count_mismatches(got, want, against)};
}

// --- reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// Fig. 6 comparisons on the membound points (printed, not gated).
void print_paper_accuracy(const std::vector<SimPoint>& points,
                          const std::vector<double>& ipc) {
  // Point order: workload-major, configs tree64+ctr, secddr+ctr,
  // enc-only+ctr, secddr+xts, enc-only+xts.
  const std::map<std::string, double> paper = {
      {"pr", 64.7}, {"omnetpp", 35.9}, {"lbm", -1.6}};
  std::printf("\nPaper accuracy (Fig. 6; printed, not gated):\n");
  double ctr_gap = 1, xts_gap = 1;
  const std::size_t n = points.size() / 5;
  for (std::size_t w = 0; w < n; ++w) {
    const double* v = &ipc[w * 5];
    const std::string name = points[w * 5].desc.name;
    const auto it = paper.find(name);
    std::printf("  SecDDR+CTR vs tree64  %-8s measured %+6.1f%%", name.c_str(),
                (v[1] / v[0] - 1) * 100);
    if (it != paper.end()) std::printf("   paper %+6.1f%%", it->second);
    std::printf("\n");
    ctr_gap *= v[1] / v[2];
    xts_gap *= v[3] / v[4];
  }
  const auto gmean = [n](double prod) { return std::pow(prod, 1.0 / n); };
  std::printf("  SecDDR vs encrypt-only, CTR (gmean)  measured %+6.1f%%   "
              "paper within 3%%\n",
              (gmean(ctr_gap) - 1) * 100);
  std::printf("  SecDDR vs encrypt-only, XTS (gmean)  measured %+6.1f%%   "
              "paper within 1%%\n",
              (gmean(xts_gap) - 1) * 100);
  std::printf("  The model is otherwise unvalidated: its traces are synthetic,\n"
              "  calibrated to published LLC MPKI, and the repository holds no\n"
              "  reference measurements to state an error against.\n");
}

/// Fuzz side of a traced run: spans from traced replays, counts and wall
/// time from the Campaign::run calls they replay.
struct FuzzLayers {
  Span exec;
  Span mutate;
  double campaign_s = 0;
  std::uint64_t executions = 0;
  std::uint64_t detected = 0;
  std::size_t coverage = 0;
};

/// Times and counts are per pass over the traced points or campaign
/// (the workload's own side repeats until the time is up, the probe of the
/// other side runs once), so runs with different pass counts compare.
std::vector<Metric> layer_metrics(const LayerProfile& p, double untraced_s,
                                  const FuzzLayers& f, double sim_passes,
                                  double fuzz_passes) {
  const double sp = sim_passes, fp = fuzz_passes;
  const double wall = static_cast<double>(p.wall_ns) * 1e-9;
  const double exec_us = f.exec.ns_per_call() / 1e3;
  const auto& d = p.dram;
  const auto& e = p.engine;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.loop.horizon_s", p.horizon.seconds() / sp, "s"},
      {"sim.loop.horizon_ns_per_call", p.horizon.ns_per_call(), "ns"},
      {"sim.loop.horizon_calls", n(p.horizon.calls) / sp, "count"},
      {"sim.loop.epoch_s", p.epoch.seconds() / sp, "s"},
      {"sim.loop.windows", n(p.epoch.calls) / sp, "count"},
      {"sim.loop.mean_window_cycles", ratio(n(p.window_cycles), n(p.epoch.calls)), "cycles"},
      {"sim.memory_system.tick_s", p.mem_tick.seconds() / sp, "s"},
      {"sim.memory_system.tick_calls", n(p.mem_tick.calls) / sp, "count"},
      {"sim.core.tick_s", p.core_tick.seconds() / sp, "s"},
      {"sim.core.ns_per_tick", p.core_tick.ns_per_call(), "ns"},
      {"sim.core.tick_calls", n(p.core_tick.calls) / sp, "count"},
      {"sim.memory_system.issue_s", p.issue.seconds() / sp, "s"},
      {"sim.memory_system.ns_per_issue", p.issue.ns_per_call(), "ns"},
      {"sim.memory_system.issue_calls", n(p.issue.calls) / sp, "count"},
      {"sim.memory_system.llc_mpki", ratio(1000.0 * n(p.llc_demand_misses), n(p.instructions)), "1/kinstr"},
      {"sim.loop.veto_s", p.veto.seconds() / sp, "s"},
      {"sim.loop.veto_calls", n(p.veto.calls) / sp, "count"},
      {"sim.loop.veto_rate", ratio(n(p.vetoes), n(p.veto.calls)), "ratio"},
      {"sim.loop.other_s", static_cast<double>(p.wall_ns - p.spans_ns()) * 1e-9 / sp, "s"},
      {"sim.loop.traced_wall_s", wall / sp, "s"},
      {"sim.loop.untraced_wall_s", untraced_s / sp, "s"},
      {"trace.overhead", ratio(wall, untraced_s), "ratio"},
      {"dram.commands", n(p.dram_commands) / sp, "count"},
      {"dram.host_ns_per_cmd", ratio(static_cast<double>(p.mem_tick.ns + p.epoch.ns), n(p.dram_commands)), "ns"},
      {"dram.scan_entries_per_cmd", ratio(n(p.scan_entries), n(p.dram_commands)), "count"},
      {"dram.row_hit_rate", ratio(n(d.row_hits), n(d.row_hits + d.row_misses)), "ratio"},
      {"dram.read_latency_mem_cycles", ratio(n(d.total_read_latency), n(d.reads_completed)), "cycles"},
      {"secmem.meta_reads_per_data_read", ratio(n(e.meta_reads()), n(e.data_reads)), "ratio"},
      {"secmem.metadata_miss_rate", ratio(n(p.meta_misses), n(p.meta_accesses)), "ratio"},
      {"secmem.tree_walk_frac", ratio(n(e.reads_with_tree_walk), n(e.data_reads)), "ratio"},
      {"fuzz.exec_us", exec_us, "us"},
      {"fuzz.exec_calls", n(f.exec.calls) / fp, "count"},
      {"fuzz.mutate_us", f.mutate.ns_per_call() / 1e3, "us"},
      {"fuzz.campaign_s", f.campaign_s / fp, "s"},
      {"fuzz.campaign_other_frac", 1.0 - ratio(n(f.executions) * exec_us * 1e-6, f.campaign_s), "ratio"},
      {"fuzz.coverage", n(f.coverage), "count"},
      {"fuzz.detected_frac", ratio(n(f.detected), n(f.executions)), "ratio"},
  };
}

void print_point_split(const std::string& name, const LayerProfile& p) {
  const double w = static_cast<double>(p.wall_ns);
  const auto pct = [w](std::int64_t ns) {
    return 100.0 * ratio(static_cast<double>(ns), w);
  };
  std::printf("  %-22s %8.1f ms  horizon %5.1f%%  epoch %5.1f%%  mem.tick %5.1f%%"
              "  core.tick %5.1f%%  issue %5.1f%%  veto %5.1f%%  other %5.1f%%\n",
              name.c_str(), w * 1e-6, pct(p.horizon.ns), pct(p.epoch.ns),
              pct(p.mem_tick.ns), pct(p.core_tick.ns), pct(p.issue.ns),
              pct(p.veto.ns), pct(p.wall_ns - p.spans_ns()));
}

// --- runs -------------------------------------------------------------

int run_untraced(const Options& opt) {
  const auto start = Clock::now();
  const bool is_fuzz = opt.workload == "fuzz";
  const std::vector<SimPoint> points =
      is_fuzz ? std::vector<SimPoint>{} : workload_points(opt.workload, opt.seed);
  std::vector<double> setup;
  std::uint64_t attempted = 0, failed = 0;
  // Per pass: the chunk times (sim step slices, fuzz batches) and total.
  std::vector<std::vector<double>> chunks;
  std::vector<double> pass_s;
  std::uint64_t pass_work = 0;  ///< instructions or executions
  SimPass first_sim;
  Replay first_replay;
  std::unique_ptr<fuzz::Executor> ex;
  std::optional<CpuRotation> rotation(std::in_place);
  const std::size_t passes = repeat_within(start, opt.seconds, [&](std::size_t pass) {
    rotation->next();
    if (is_fuzz) {
      if (pass % kFuzzPassesPerSetup == 0) {
        const auto t0 = Clock::now();
        ex = attested_executor();
        setup.push_back(since(t0));
      }
      const auto t1 = Clock::now();
      Replay rp = replay_campaign(*ex, opt.seed, kFuzzTrials, false);
      pass_s.push_back(since(t1));
      chunks.push_back(std::move(rp.chunk_s));
      pass_work = rp.executions;
      attempted += rp.executions;
      failed += rp.escapes;
      if (pass == 0)
        first_replay = rp;
      else if (rp.coverage != first_replay.coverage ||
               rp.detected != first_replay.detected) {
        std::printf("MISMATCH replay %zu differs from the first\n", pass);
        ++failed;
      }
    } else {
      SimPass ps = run_sim_pass(points, true);
      pass_s.push_back(ps.run_s);
      setup.push_back(ps.setup_s);
      for (std::size_t i = 1; i < kSimSetupsPerPass; ++i)
        setup.push_back(sim_setup_only(points));
      chunks.push_back(std::move(ps.chunk_s));
      pass_work = ps.instructions;
      attempted += points.size();
      if (ps.hit_limit) {
        std::printf("FAIL: a point hit the %llu-cycle limit\n",
                    static_cast<unsigned long long>(kMaxCycles));
        ++failed;
      }
      if (pass == 0)
        first_sim = std::move(ps);
      else
        failed += count_mismatches(sim_digests(points, ps),
                                   sim_digests(points, first_sim), "first pass");
    }
  });
  const double measured_s = since(start);
  rotation.reset();  // the gate's 2-job campaign may use every CPU again
  ex.reset();        // and attests its own executors
  // Each sim pass samples set-up kSimSetupsPerPass times; a short fuzz run
  // may have attested fewer executors than kMinSetupSamples.
  while (is_fuzz && setup.size() < kMinSetupSamples) {
    const auto t0 = Clock::now();
    const auto attested = attested_executor();
    setup.push_back(since(t0));
  }

  Digests got;
  if (is_fuzz) {
    // Campaigns are bit-reproducible at any job count: the recorded log
    // comes from 1 job, other seeds compare the replay with 2 jobs.
    const unsigned jobs = opt.seed == kRecordedSeed ? 1 : 2;
    const fuzz::CampaignResult c =
        fuzz::Campaign(campaign_options(opt.seed, kFuzzTrials, jobs)).run();
    failed += !replay_matches(first_replay, c);
    got = fuzz_digests(c);
  } else {
    got = sim_digests(points, first_sim);
  }
  const auto [compared, mismatched] = gate(opt, points, got);
  attempted += compared;
  failed += mismatched;

  // Every pass repeats the same chunks of work, so each chunk's fastest
  // pass is its time with the least interference from other tenants of
  // the host, whose load comes in bursts.
  double best_s = 0;
  for (std::size_t c = 0; c < chunks[0].size(); ++c) {
    double best = chunks[0][c];
    for (const auto& pass : chunks) {
      if (pass.size() != chunks[0].size()) {
        std::printf("MISMATCH pass chunk counts differ\n");
        ++failed;
        break;
      }
      best = std::min(best, pass[c]);
    }
    best_s += best;
  }
  const double throughput = static_cast<double>(pass_work) / best_s;
  std::printf("workload %s, seed %llu: %zu passes in %.1f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              passes, measured_s);
  std::printf("  pass seconds:");
  for (const double s : pass_s) std::printf(" %.3f", s);
  std::printf("\n");
  if (is_fuzz)
    std::printf("  fuzz_execs_per_s  %12.1f 1/s      (best of %zu passes per batch)\n",
                throughput, passes);
  else
    std::printf("  sim_kips          %12.1f kinstr/s (best of %zu passes per slice)\n",
                throughput / 1e3, passes);
  std::printf("  setup_s           %12.4f s        (median of %zu)\n",
              median(setup), setup.size());
  std::printf("  peak_rss_mb       %12.1f MB\n", peak_rss_mb());
  if (opt.workload == "membound") print_paper_accuracy(points, first_sim.ipc);
  std::printf("\n");
  print_result(attempted, failed,
               {{"throughput", throughput, "1/s"},
                {"setup_s", median(setup), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return failed == 0 ? 0 : 1;
}

int run_traced_mode(const Options& opt) {
  const auto start = Clock::now();
  const bool is_fuzz = opt.workload == "fuzz";
  const std::vector<SimPoint> points = workload_points(opt.workload, opt.seed);
  const std::uint64_t trials = is_fuzz ? kFuzzTrials : kFuzzProbeTrials;
  std::uint64_t attempted = 0, failed = 0;
  LayerProfile total;
  std::vector<LayerProfile> per_point(points.size());
  double untraced_s = 0;
  FuzzLayers fz;
  std::unique_ptr<fuzz::Executor> ex;
  Digests first;

  const auto sim_once = [&] {
    const SimPass un = run_sim_pass(points, true);
    untraced_s += un.run_s;
    const std::uint64_t traced_instructions_before = total.instructions;
    for (std::size_t i = 0; i < points.size(); ++i) {
      PointTraces traces(points[i].desc);
      LayerProfile prof;
      const sim::RunResult r =
          perfbench::run_traced(system_config(points[i], true), traces.ptrs,
                                kInstructions, kMaxCycles, kWarmup, &prof);
      per_point[i] += prof;
      total += prof;
      ++attempted;
      if (fleet::checkpoint::encode_result(r) != un.results[i]) {
        ++failed;
        std::printf("MISMATCH %s: traced replica differs from System::run\n",
                    points[i].name.c_str());
      }
    }
    // The untraced throughput counts kWarmup per core; the replica counts
    // what the cores retired.
    if (total.instructions - traced_instructions_before != un.instructions) {
      ++failed;
      std::printf("MISMATCH retired instructions: traced %llu, counted %llu\n",
                  static_cast<unsigned long long>(total.instructions -
                                                  traced_instructions_before),
                  static_cast<unsigned long long>(un.instructions));
    }
    if (first.empty() && !is_fuzz) first = sim_digests(points, un);
  };
  const auto fuzz_once = [&] {
    const auto t0 = Clock::now();
    const fuzz::CampaignResult c =
        fuzz::Campaign(campaign_options(opt.seed, trials, 1)).run();
    fz.campaign_s += since(t0);
    if (!ex) ex = attested_executor();
    const Replay rp = replay_campaign(*ex, opt.seed, trials, true);
    attempted += c.executions;
    failed += rp.escapes + !replay_matches(rp, c);
    fz.exec += rp.exec;
    fz.mutate += rp.mutate;
    fz.executions += c.executions;
    fz.detected += c.verdicts[static_cast<std::size_t>(fuzz::Verdict::kDetected)];
    fz.coverage = c.coverage;
    if (first.empty() && is_fuzz) first = fuzz_digests(c);
  };
  // The workload's own side until the time is up, the other side's probe
  // once.
  const std::size_t passes = repeat_within(
      start, opt.seconds, [&](std::size_t) { is_fuzz ? fuzz_once() : sim_once(); });
  is_fuzz ? sim_once() : fuzz_once();
  const auto [compared, mismatched] = gate(opt, points, first);
  attempted += compared;
  failed += mismatched;

  std::printf("workload %s, seed %llu: %zu traced passes in %.1f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              passes, since(start));
  std::printf("Traced host-time split per point (share of traced wall):\n");
  for (std::size_t i = 0; i < points.size(); ++i)
    print_point_split(points[i].name, per_point[i]);
  print_point_split("all points", total);
  std::printf("  trace.overhead %.3f (traced %.2f s / untraced %.2f s)\n",
              ratio(static_cast<double>(total.wall_ns) * 1e-9, untraced_s),
              static_cast<double>(total.wall_ns) * 1e-9, untraced_s);
  std::printf("Span calls: core.tick %llu, issue %llu, mem.tick %llu, veto %llu, "
              "horizon %llu, epoch %llu, fuzz.exec %llu, fuzz.mutate %llu\n\n",
              static_cast<unsigned long long>(total.core_tick.calls),
              static_cast<unsigned long long>(total.issue.calls),
              static_cast<unsigned long long>(total.mem_tick.calls),
              static_cast<unsigned long long>(total.veto.calls),
              static_cast<unsigned long long>(total.horizon.calls),
              static_cast<unsigned long long>(total.epoch.calls),
              static_cast<unsigned long long>(fz.exec.calls),
              static_cast<unsigned long long>(fz.mutate.calls));
  const double own = static_cast<double>(passes);
  print_result(attempted, failed,
               layer_metrics(total, untraced_s, fz, is_fuzz ? 1.0 : own,
                             is_fuzz ? own : 1.0));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    return opt.trace ? run_traced_mode(opt) : run_untraced(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
