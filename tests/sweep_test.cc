// Tests for the parallel sweep runner in bench/sweep.{h,cc}: ordering,
// error propagation, and serial/parallel result equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/sweep.h"

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

TEST(ThreadKnobs, EnvUnsignedRejectsMalformedValues) {
  ScopedEnv e("SECDDR_TEST_KNOB", nullptr);
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);  // unset
  ::setenv("SECDDR_TEST_KNOB", "3", 1);
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 3u);
  ::setenv("SECDDR_TEST_KNOB", "0", 1);  // must be positive
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);
  ::setenv("SECDDR_TEST_KNOB", "-1", 1);  // strtoul would wrap this
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);
  ::setenv("SECDDR_TEST_KNOB", "2x", 1);  // trailing junk
  EXPECT_EQ(env_unsigned("SECDDR_TEST_KNOB", 7u), 7u);
}

// Run-sizing knobs are strict: a malformed value exits 2 naming the
// knob instead of running as 0 (SECDDR_INSTR=abc used to print an
// all-zero table and exit 0).
TEST(StrictKnobsDeathTest, MalformedRunKnobsExit2) {
  for (const char* knob : {"SECDDR_INSTR", "SECDDR_WARMUP", "SECDDR_CORES",
                           "SECDDR_CHANNELS", "SECDDR_MEM_THREADS"}) {
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

TEST(StrictKnobs, ValidValuesParse) {
  ScopedEnv i("SECDDR_INSTR", "2000");
  ScopedEnv w("SECDDR_WARMUP", "0");
  ScopedEnv c("SECDDR_CORES", "2");
  ScopedEnv ch("SECDDR_CHANNELS", "4");
  ScopedEnv m("SECDDR_MEM_THREADS", "1");
  const BenchOptions o = BenchOptions::from_env();
  EXPECT_EQ(o.instructions, 2000u);
  EXPECT_EQ(o.warmup, 0u);
  EXPECT_EQ(o.cores, 2u);
  EXPECT_EQ(o.channels, 4u);
  EXPECT_EQ(o.mem_threads, 1u);

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
}

TEST(ThreadKnobs, PriorityDefaultsFollowChannelCount) {
  ScopedEnv p("SECDDR_THREAD_PRIORITY", nullptr);
  ScopedEnv c("SECDDR_CHANNELS", nullptr);
  // Single channel: nothing to decouple, sweep jobs keep priority.
  EXPECT_EQ(thread_priority(), ThreadPriority::kJobs);
  // Multiple channels flip the default to the in-System threads.
  ::setenv("SECDDR_CHANNELS", "4", 1);
  EXPECT_EQ(thread_priority(), ThreadPriority::kMem);
  // Explicit override beats the channel heuristic in both directions.
  ::setenv("SECDDR_THREAD_PRIORITY", "jobs", 1);
  EXPECT_EQ(thread_priority(), ThreadPriority::kJobs);
  ::unsetenv("SECDDR_CHANNELS");
  ::setenv("SECDDR_THREAD_PRIORITY", "mem", 1);
  EXPECT_EQ(thread_priority(), ThreadPriority::kMem);
  // Garbage falls back to the heuristic default.
  ::setenv("SECDDR_THREAD_PRIORITY", "bogus", 1);
  EXPECT_EQ(thread_priority(), ThreadPriority::kJobs);
}

TEST(ThreadKnobs, MemPriorityClampsSweepJobsNotMemThreads) {
  ScopedEnv p("SECDDR_THREAD_PRIORITY", "mem");
  ScopedEnv c("SECDDR_CHANNELS", "4");
  ScopedEnv m("SECDDR_MEM_THREADS", "4");
  ScopedEnv j("SECDDR_JOBS", "64");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Under mem priority jobs yield: 64 x 4 cannot fit any machine CTest
  // runs on, so sweep_jobs() must clamp to the share mem_threads leaves.
  EXPECT_EQ(sweep_jobs(), std::max(1u, hw / 4));
  // ...while mem_threads itself is bounded only by the hardware.
  const BenchOptions o = BenchOptions::from_env();
  EXPECT_EQ(o.mem_threads, std::min(4u, hw));
}

TEST(ThreadKnobs, JobsPriorityClampsMemThreads) {
  ScopedEnv p("SECDDR_THREAD_PRIORITY", "jobs");
  ScopedEnv c("SECDDR_CHANNELS", "4");
  ScopedEnv m("SECDDR_MEM_THREADS", "64");
  ScopedEnv j("SECDDR_JOBS", "2");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Jobs keep their requested width...
  EXPECT_EQ(sweep_jobs(), 2u);
  // ...and mem_threads is squeezed into the share the workers leave.
  const BenchOptions o = BenchOptions::from_env();
  EXPECT_EQ(o.mem_threads, std::max(1u, hw / 2));
}

}  // namespace
}  // namespace secddr::bench
