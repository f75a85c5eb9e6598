// fleetd: fleet simulation service driver + self-checking smoke.
//
// Builds a heterogeneous fleet (workloads x security configurations from
// the evaluation suite), runs it through the multi-process coordinator
// (durable generational checkpoints + supervised crash recovery), then
// re-runs the identical fleet on a single undisturbed worker and
// requires the aggregated results to be byte-identical. Exit status 1 on
// any divergence — this is the fleet's determinism gate, wired into
// CTest.
//
//   fleetd [--chaos[=SEED]]
//
// --chaos arms a seeded fault-injection plan (fleet/chaos.h) covering
// every fault class — kills during/around checkpoint publication, a
// corrupted and a torn generation, a hung worker, a torn result frame —
// and then requires the disturbed run to (a) actually exercise the
// recovery machinery and (b) still match the undisturbed reference
// byte for byte, with zero nodes quarantined.
//
// Environment knobs (all optional; a malformed number names the knob and
// exits 2):
//   SECDDR_FLEET_NODES    simulated nodes                 (default 4)
//   SECDDR_FLEET_WORKERS  worker processes                (default 2)
//   SECDDR_FLEET_CKPT     cycles between checkpoints      (default 10000)
//   SECDDR_FLEET_KILL=1   SIGKILL a worker after its first checkpoint,
//                         forcing the respawn + resume path
//   SECDDR_FLEET_CHAOS    chaos seed (same as --chaos=SEED)
//   SECDDR_FLEET_WATCHDOG_MS  watchdog deadline for the chaos run
//                             (default 2000; 0 disables)
//   SECDDR_FLEET_STATE    state-directory prefix          (default fleet_state)
//   SECDDR_FLEET_JSON     aggregate output ('' disables;  default BENCH_fleet.json)
//   SECDDR_INSTR / SECDDR_WARMUP / SECDDR_CORES  as in bench/harness.h
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.h"
#include "fleet/chaos.h"
#include "fleet/coordinator.h"
#include "fleet/shard.h"
#include "../bench/harness.h"
#include "../bench/json.h"

using namespace secddr;

namespace {

fleet::NodeConfig make_node(unsigned i, const bench::BenchOptions& opt) {
  const auto& suite = workloads::suite();
  const workloads::WorkloadDesc& w = suite[i % suite.size()];
  struct SecChoice {
    const char* tag;
    secmem::SecurityParams params;
  };
  const std::vector<SecChoice> secs = {
      {"tree64", secmem::SecurityParams::baseline_tree_ctr()},
      {"secddr", secmem::SecurityParams::secddr_ctr()},
      {"enc_only", secmem::SecurityParams::encrypt_only_ctr()},
  };
  const SecChoice& sec = secs[i % secs.size()];
  dram::Timings timings = dram::Timings::ddr4_3200();
  if (sec.params.ewcrc) timings = timings.with_ewcrc_burst();
  fleet::NodeConfig n;
  n.name = w.name + std::string("+") + sec.tag;
  n.system = bench::make_system_config(opt, sec.params, timings);
  n.workload = w.name;
  n.instructions = opt.instructions;
  n.warmup = opt.warmup;
  n.max_cycles = 4'000'000'000ull;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::BenchOptions::from_env();
  // Keep the no-knob invocation snappy (the full suite is a CI knob away).
  if (!std::getenv("SECDDR_INSTR")) opt.instructions = 20000;
  if (!std::getenv("SECDDR_WARMUP")) opt.warmup = 5000;
  if (!std::getenv("SECDDR_CORES")) opt.cores = 2;

  bool chaos_mode = std::getenv("SECDDR_FLEET_CHAOS") != nullptr;
  std::uint64_t chaos_seed =
      env_integer<std::uint64_t>("SECDDR_FLEET_CHAOS", 1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos_mode = true;
    } else if (std::strncmp(argv[i], "--chaos=", 8) == 0) {
      chaos_mode = true;
      chaos_seed = parse_or_exit<std::uint64_t>("--chaos", argv[i] + 8);
    } else {
      std::fprintf(stderr, "fleetd: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  const unsigned node_count = env_integer("SECDDR_FLEET_NODES", 4u);
  const unsigned workers = env_integer("SECDDR_FLEET_WORKERS", 2u);
  const Cycle ckpt_every = env_integer<Cycle>("SECDDR_FLEET_CKPT", 10'000);
  const bool kill_hook = env_flag("SECDDR_FLEET_KILL", false);
  const char* state_env = std::getenv("SECDDR_FLEET_STATE");
  const std::string state_base = state_env ? state_env : "fleet_state";

  std::vector<fleet::NodeConfig> nodes;
  for (unsigned i = 0; i < node_count; ++i)
    nodes.push_back(make_node(i, opt));

  std::printf("fleetd: %u nodes, %u workers, checkpoint every %llu cycles%s%s\n",
              node_count, workers,
              static_cast<unsigned long long>(ckpt_every),
              kill_hook ? ", kill-a-worker enabled" : "",
              chaos_mode ? ", chaos armed" : "");

  fleet::FleetOptions run_opts;
  run_opts.workers = workers;
  run_opts.checkpoint_every = ckpt_every;
  run_opts.state_dir = state_base + "_run";
  run_opts.kill_after_first_checkpoint = kill_hook;
  if (chaos_mode) {
    run_opts.chaos = fleet::ChaosPlan::seeded(chaos_seed, node_count);
    run_opts.watchdog_deadline_ms =
        env_integer("SECDDR_FLEET_WATCHDOG_MS", 2'000u);
    // The seeded plan is built so full recovery (not quarantine) is the
    // required outcome; give the supervisor headroom to prove it.
    run_opts.node_failure_budget = 16;
    run_opts.max_respawns = 64;
    std::printf("chaos plan (seed %llu):\n%s",
                static_cast<unsigned long long>(chaos_seed),
                run_opts.chaos.describe().c_str());
  }
  fleet::reset_state_dir(run_opts.state_dir);
  const fleet::FleetResult res = fleet::run_fleet(nodes, run_opts);

  // Undisturbed single-worker reference over the identical fleet.
  fleet::FleetOptions ref_opts;
  ref_opts.workers = 1;
  ref_opts.checkpoint_every = ckpt_every;
  ref_opts.state_dir = state_base + "_ref";
  fleet::reset_state_dir(ref_opts.state_dir);
  const fleet::FleetResult ref = fleet::run_fleet(nodes, ref_opts);

  std::printf("\n%-22s %10s %14s %12s  %s\n", "node", "total IPC",
              "avg rd lat", "dram reads", "status");
  for (std::size_t i = 0; i < res.per_node.size(); ++i) {
    const sim::RunResult& r = res.per_node[i];
    std::printf("%-22s %10.4f %14.2f %12llu  %s\n", res.names[i].c_str(),
                r.total_ipc, r.dram.avg_read_latency(),
                static_cast<unsigned long long>(r.dram.reads_completed),
                fleet::node_status_name(res.status[i]));
  }
  std::printf(
      "\nfleet total IPC %.4f | instructions %llu | respawns %u | "
      "hung kills %u | quarantined %u\n",
      res.total_ipc, static_cast<unsigned long long>(res.instructions),
      res.respawns, res.hung_kills, res.quarantined);
  for (const fleet::FailureEvent& ev : res.failures)
    std::printf("  failure: node %u (%s) lost %llu cycles, backoff %lld ms%s\n",
                ev.node, res.names[ev.node].c_str(),
                static_cast<unsigned long long>(ev.lost_cycles), ev.backoff_ms,
                ev.hung ? " [watchdog]" : "");

  const bool identical =
      fleet::encode_fleet(res) == fleet::encode_fleet(ref);
  std::printf("recovered aggregates vs undisturbed single worker: %s\n",
              identical ? "bit-identical" : "DIVERGED");

  bench::JsonObject root;
  root.field("bench", "fleet");
  root.field("nodes", node_count);
  root.field("workers", workers);
  root.field("checkpoint_every", ckpt_every);
  root.field("kill_hook", kill_hook);
  root.field("chaos", chaos_mode);
  if (chaos_mode) root.field("chaos_seed", chaos_seed);
  root.field("respawns", res.respawns);
  root.field("hung_kills", res.hung_kills);
  root.field("quarantined", res.quarantined);
  std::vector<std::string> failures;
  for (const fleet::FailureEvent& ev : res.failures) {
    bench::JsonObject o;
    o.field("node", ev.node);
    o.field("lost_cycles", ev.lost_cycles);
    o.field("backoff_ms", ev.backoff_ms);
    o.field("hung", ev.hung);
    failures.push_back(o.done());
  }
  root.raw("failures", bench::json_array(failures));
  root.field("total_ipc", res.total_ipc);
  root.field("instructions", res.instructions);
  root.field("dram_reads_completed", res.dram_reads_completed);
  root.field("engine_meta_reads", res.engine_meta_reads);
  root.raw("ipc_hist", bench::json_array(res.ipc_hist));
  root.raw("latency_hist", bench::json_array(res.latency_hist));
  root.field("bit_identical", identical);
  std::vector<std::string> per_node;
  for (std::size_t i = 0; i < res.per_node.size(); ++i) {
    bench::JsonObject o;
    o.field("name", res.names[i]);
    o.field("total_ipc", res.per_node[i].total_ipc);
    o.field("status", fleet::node_status_name(res.status[i]));
    per_node.push_back(o.done());
  }
  root.raw("per_node", bench::json_array(per_node));
  bench::write_json("SECDDR_FLEET_JSON", "BENCH_fleet.json", root.done());

  if (!identical) {
    std::fprintf(stderr,
                 "fleetd: FAIL — fleet aggregates diverged from the "
                 "undisturbed reference\n");
    return 1;
  }
  if (kill_hook && res.respawns == 0) {
    std::fprintf(stderr,
                 "fleetd: FAIL — kill hook requested but no worker needed a "
                 "respawn (recovery path not exercised; lower "
                 "SECDDR_FLEET_CKPT or raise SECDDR_INSTR)\n");
    return 1;
  }
  if (chaos_mode && res.respawns == 0) {
    std::fprintf(stderr,
                 "fleetd: FAIL — chaos armed but no worker died (fault "
                 "injection did not engage)\n");
    return 1;
  }
  if (chaos_mode && res.quarantined != 0) {
    std::fprintf(stderr,
                 "fleetd: FAIL — seeded chaos plan must end in full "
                 "recovery, but %u node(s) were quarantined\n",
                 res.quarantined);
    return 1;
  }
  return 0;
}
