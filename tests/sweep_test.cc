// Tests for the parallel sweep runner in bench/sweep.{h,cc}: ordering,
// error propagation, serial/parallel result equivalence, and the strict
// env-knob parsing shared with the fuzz campaign and fleetd.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "../bench/sweep.h"
#include "fuzz/campaign.h"

namespace secddr::bench {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialPathRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroAndOneItems) {
  int calls = 0;
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(64, 4,
                   [&](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Serial path too.
  EXPECT_THROW(parallel_for(2, 1,
                            [&](std::size_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(CrossSweep, WorkloadMajorOrderAndFilter) {
  const auto& suite = workloads::suite();
  ASSERT_GE(suite.size(), 2u);
  const std::vector<secmem::SecurityParams> configs = {
      secmem::SecurityParams::baseline_tree_ctr(),
      secmem::SecurityParams::secddr_ctr(),
  };

  BenchOptions opt;
  auto points = cross_sweep(suite, configs, opt);
  ASSERT_EQ(points.size(), suite.size() * configs.size());
  EXPECT_EQ(points[0].workload.name, suite[0].name);
  EXPECT_EQ(points[1].workload.name, suite[0].name);
  EXPECT_EQ(points[2].workload.name, suite[1].name);

  opt.filter = suite[0].name;
  auto filtered = cross_sweep(suite, configs, opt);
  for (const auto& p : filtered)
    EXPECT_NE(p.workload.name.find(suite[0].name), std::string::npos);
  EXPECT_LT(filtered.size(), points.size());
}

// The acceptance gate for the tentpole: a parallel sweep must produce
// results identical to the serial path, point for point.
TEST(RunSweep, ParallelMatchesSerial) {
  BenchOptions opt;
  opt.instructions = 3000;
  opt.warmup = 500;
  opt.cores = 2;

  const auto& suite = workloads::suite();
  std::vector<workloads::WorkloadDesc> subset(suite.begin(),
                                              suite.begin() + 3);
  const std::vector<secmem::SecurityParams> configs = {
      secmem::SecurityParams::baseline_tree_ctr(),
      secmem::SecurityParams::secddr_ctr(),
  };
  const auto points = cross_sweep(subset, configs, opt);

  const auto serial = run_sweep(points, opt, /*jobs=*/1);
  const auto parallel = run_sweep(points, opt, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(points[i].workload.name);
    EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
    EXPECT_DOUBLE_EQ(serial[i].total_ipc, parallel[i].total_ipc);
    EXPECT_DOUBLE_EQ(serial[i].llc_mpki, parallel[i].llc_mpki);
    EXPECT_EQ(serial[i].metadata_accesses, parallel[i].metadata_accesses);
  }
}

TEST(SweepJobs, EnvOverride) {
  // Only exercised when the env knob is absent: default must be >= 1.
  EXPECT_GE(sweep_jobs(), 1u);
}

// Sets an env var for one test, restoring the previous value (or absence)
// on destruction so the knob tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_.has_value())
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Run-sizing knobs are strict: a malformed value exits 2 naming the
// knob instead of running as 0 (SECDDR_INSTR=abc used to print an
// all-zero table and exit 0).
TEST(StrictKnobsDeathTest, MalformedRunKnobsExit2) {
  for (const char* knob :
       {"SECDDR_INSTR", "SECDDR_WARMUP", "SECDDR_CORES", "SECDDR_CHANNELS"}) {
    for (const char* bad : {"abc", "12x", "-1", "", " 4", "+4"}) {
      SCOPED_TRACE(std::string(knob) + "='" + bad + "'");
      ScopedEnv e(knob, bad);
      EXPECT_EXIT(BenchOptions::from_env(), ::testing::ExitedWithCode(2),
                  knob);
    }
  }
  // Out of range for the field: `cores` is 32-bit.
  ScopedEnv e("SECDDR_CORES", "4294967296");
  EXPECT_EXIT(BenchOptions::from_env(), ::testing::ExitedWithCode(2),
              "SECDDR_CORES");
}

TEST(StrictKnobsDeathTest, MalformedThermalKnobsExit2) {
  ScopedEnv on("SECDDR_THERMAL", "1");
  for (const char* knob :
       {"SECDDR_THERMAL_WINDOW", "SECDDR_THERMAL_R_MK", "SECDDR_THERMAL_C_NJ",
        "SECDDR_THERMAL_THROTTLE", "SECDDR_THERMAL_PERIOD",
        "SECDDR_THERMAL_REMAP"}) {
    for (const char* bad : {"abc", "12x", "-1", ""}) {
      SCOPED_TRACE(std::string(knob) + "='" + bad + "'");
      ScopedEnv e(knob, bad);
      EXPECT_EXIT(thermal_config_from_env(), ::testing::ExitedWithCode(2),
                  knob);
    }
  }
  // Signed knobs take a minus sign but nothing else.
  for (const char* knob : {"SECDDR_THERMAL_AMBIENT_MC",
                           "SECDDR_THERMAL_TRIP_MC",
                           "SECDDR_THERMAL_RELEASE_MC"}) {
    for (const char* bad : {"abc", "12x", "--1", ""}) {
      SCOPED_TRACE(std::string(knob) + "='" + bad + "'");
      ScopedEnv e(knob, bad);
      EXPECT_EXIT(thermal_config_from_env(), ::testing::ExitedWithCode(2),
                  knob);
    }
  }
  // r_mk_per_w is 32-bit.
  ScopedEnv e("SECDDR_THERMAL_R_MK", "4294967296");
  EXPECT_EXIT(thermal_config_from_env(), ::testing::ExitedWithCode(2),
              "SECDDR_THERMAL_R_MK");
}

// The fuzz campaign and fleetd parse their numbers with the same strict
// parser: SECDDR_FUZZ_TRIALS=abc used to run a 0-trial campaign that
// reported PASS, and SECDDR_FLEET_NODES=abc aborted on an uncaught
// exception. fleetd parses in main(), so it is exec'd as built.
TEST(StrictKnobsDeathTest, MalformedFuzzAndFleetKnobsExit2) {
  for (const char* knob :
       {"SECDDR_FUZZ_TRIALS", "SECDDR_FUZZ_JOBS", "SECDDR_FUZZ_SEED"}) {
    for (const char* bad : {"abc", "12x", "-1", "", " 4", "+4", "0x"}) {
      SCOPED_TRACE(std::string(knob) + "='" + bad + "'");
      ScopedEnv e(knob, bad);
      EXPECT_EXIT(fuzz::CampaignOptions::from_env(),
                  ::testing::ExitedWithCode(2), knob);
    }
  }
  {  // 0x-hex is the seed's documented form, and only the seed's.
    ScopedEnv seed("SECDDR_FUZZ_SEED", "0xfeed");
    EXPECT_EQ(fuzz::CampaignOptions::from_env().seed, 0xfeedu);
    ScopedEnv trials("SECDDR_FUZZ_TRIALS", "0x10");
    EXPECT_EXIT(fuzz::CampaignOptions::from_env(),
                ::testing::ExitedWithCode(2), "SECDDR_FUZZ_TRIALS");
  }
  for (const char* knob : {"SECDDR_FLEET_NODES", "SECDDR_FLEET_WORKERS",
                           "SECDDR_FLEET_CKPT", "SECDDR_FLEET_CHAOS"}) {
    SCOPED_TRACE(knob);
    ScopedEnv e(knob, "abc");
    EXPECT_EXIT(::execl(SECDDR_FLEETD_BIN, SECDDR_FLEETD_BIN,
                        static_cast<char*>(nullptr)),
                ::testing::ExitedWithCode(2), knob);
  }
  EXPECT_EXIT(
      ::execl(SECDDR_FLEETD_BIN, SECDDR_FLEETD_BIN, "--chaos=abc",
              static_cast<char*>(nullptr)),
      ::testing::ExitedWithCode(2), "--chaos='abc'");
}

// SECDDR_JOBS used to warn and fall back, the 0/1 flags read anything
// but "0" as on, and trace_convert read "--block-records 12x" as 12.
TEST(StrictKnobsDeathTest, MalformedJobsFlagsAndBlockRecordsExit2) {
  for (const char* bad : {"abc", "12x", "-1", "", "0"}) {
    SCOPED_TRACE(std::string("SECDDR_JOBS='") + bad + "'");
    ScopedEnv e("SECDDR_JOBS", bad);
    EXPECT_EXIT(sweep_jobs(), ::testing::ExitedWithCode(2), "SECDDR_JOBS");
  }
  for (const char* bad : {"yes", "2", "", " 1", "01"}) {
    for (const char* knob : {"SECDDR_THERMAL", "SECDDR_THERMAL_THROTTLE",
                             "SECDDR_THERMAL_REMAP"}) {
      SCOPED_TRACE(std::string(knob) + "='" + bad + "'");
      ScopedEnv on("SECDDR_THERMAL", "1");
      ScopedEnv e(knob, bad);
      EXPECT_EXIT(thermal_config_from_env(), ::testing::ExitedWithCode(2),
                  std::string(knob) + "='");
    }
    for (const char* knob : {"SECDDR_FUZZ_SIM", "SECDDR_FUZZ_EVENT_DRIVEN"}) {
      SCOPED_TRACE(std::string(knob) + "='" + bad + "'");
      ScopedEnv e(knob, bad);
      EXPECT_EXIT(fuzz::CampaignOptions::from_env(),
                  ::testing::ExitedWithCode(2), knob);
    }
  }
  {
    ScopedEnv e("SECDDR_FLEET_KILL", "yes");
    EXPECT_EXIT(::execl(SECDDR_FLEETD_BIN, SECDDR_FLEETD_BIN,
                        static_cast<char*>(nullptr)),
                ::testing::ExitedWithCode(2), "SECDDR_FLEET_KILL");
  }
  for (const char* bad : {"12x", "-1", "4294967296"}) {
    SCOPED_TRACE(std::string("--block-records ") + bad);
    EXPECT_EXIT(::execl(SECDDR_TRACE_CONVERT_BIN, SECDDR_TRACE_CONVERT_BIN,
                        "in.trace", "out.strace", "--block-records", bad,
                        static_cast<char*>(nullptr)),
                ::testing::ExitedWithCode(2), "--block-records='");
  }
}

TEST(StrictKnobs, ValidValuesParse) {
  ScopedEnv i("SECDDR_INSTR", "2000");
  ScopedEnv w("SECDDR_WARMUP", "0");
  ScopedEnv c("SECDDR_CORES", "2");
  ScopedEnv ch("SECDDR_CHANNELS", "4");
  const BenchOptions o = BenchOptions::from_env();
  EXPECT_EQ(o.instructions, 2000u);
  EXPECT_EQ(o.warmup, 0u);
  EXPECT_EQ(o.cores, 2u);
  EXPECT_EQ(o.channels, 4u);

  ScopedEnv on("SECDDR_THERMAL", "1");
  ScopedEnv win("SECDDR_THERMAL_WINDOW", "2048");
  ScopedEnv r("SECDDR_THERMAL_R_MK", "4294967295");
  ScopedEnv amb("SECDDR_THERMAL_AMBIENT_MC", "-5000");
  ScopedEnv thr("SECDDR_THERMAL_THROTTLE", "1");
  const dram::PowerConfig p = thermal_config_from_env();
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.window_cycles, 2048u);
  EXPECT_EQ(p.thermal.r_mk_per_w, 4294967295u);
  EXPECT_EQ(p.thermal.ambient_mc, -5000);
  EXPECT_TRUE(p.throttle);
  EXPECT_FALSE(p.remap);  // unset keeps the default

  ScopedEnv jobs("SECDDR_JOBS", "3");
  EXPECT_EQ(sweep_jobs(), 3u);
  ScopedEnv sim("SECDDR_FUZZ_SIM", "1");
  ScopedEnv ed("SECDDR_FUZZ_EVENT_DRIVEN", "0");
  const fuzz::CampaignOptions f = fuzz::CampaignOptions::from_env();
  EXPECT_TRUE(f.exec.timing_leg);
  EXPECT_FALSE(f.exec.event_driven);
}

}  // namespace
}  // namespace secddr::bench
