// The determinism gate: the (config, seed) purity contract as a red/green
// check. A canonical multi-threaded crash-recovery configuration — the most
// machinery any run exercises at once (MT engine cursors, shared device
// timeline, journal commits, crash injection, shadow-disk durability,
// recovery replay) — is run twice, and a full digest of every RunResult
// field must match bit for bit. detlint (tools/detlint) enforces the same
// contract statically; this test is the dynamic complement that catches
// whatever a token scanner cannot (allocator-order effects, float
// accumulation order, scheduler ties).
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/core/experiment.h"
#include "src/core/workloads/postmark_like.h"
#include "src/sim/recovery.h"
#include "tests/run_digest.h"

namespace fsbench {
namespace {

// The canonical gate configuration: 4 simulated threads of fsync-heavy
// postmark under a small cache (ordered journaling on ext3/xfs), crashing
// mid-run with the replay consistency check on. `scenario` layers a test's
// faults, array or device kind on top of the small-cache machine.
MachineFactory GateMachine(FsKind kind,
                           const std::function<void(MachineConfig&)>& scenario = {}) {
  return [kind, scenario](uint64_t seed) {
    MachineConfig config;
    config.ram = 110 * kMiB;
    config.os_reserved = 102 * kMiB;
    config.seed = seed;
    if (scenario) {
      scenario(config);
    }
    return std::make_unique<Machine>(kind, config);
  };
}

ThreadedWorkloadFactory GateWorkload() {
  PostmarkConfig pm;
  pm.initial_files = 50;
  pm.min_size = 512;
  pm.max_size = 16 * kKiB;
  pm.fsync_every = 4;
  return MtPostmarkFactory(pm);
}

ExperimentConfig GateConfig() {
  ExperimentConfig config;
  config.runs = 2;  // two seeds per experiment: jitter draws are in the digest's blast radius
  config.duration = 60 * kSecond;
  config.threads = 4;
  config.base_seed = 11;
  config.crash = CrashScenario{/*at_op=*/600, /*at_time=*/0, /*replay_check=*/true};
  return config;
}

class DeterminismGate : public ::testing::TestWithParam<FsKind> {};

// Runs the experiment twice: every run must digest bit-identically to its
// twin, and the two seeds must NOT collide (a constant digest would also
// "pass"). Returns the first experiment for the caller's coverage checks.
ExperimentResult RunTwiceExpectIdentical(const ExperimentConfig& config,
                                         const MachineFactory& machines) {
  const ExperimentResult first = Experiment(config).Run(machines, GateWorkload());
  const ExperimentResult second = Experiment(config).Run(machines, GateWorkload());
  EXPECT_EQ(first.runs.size(), second.runs.size());
  for (size_t i = 0; i < first.runs.size() && i < second.runs.size(); ++i) {
    EXPECT_EQ(DigestRunResult(first.runs[i]), DigestRunResult(second.runs[i]))
        << "run " << i << " digest diverged — the (config, seed) contract is broken";
  }
  EXPECT_GE(first.runs.size(), 2u);
  if (first.runs.size() >= 2) {
    EXPECT_NE(DigestRunResult(first.runs[0]), DigestRunResult(first.runs[1]));
  }
  return first;
}

TEST_P(DeterminismGate, RunTwiceBitIdenticalDigest) {
  const ExperimentConfig config = GateConfig();
  const MachineFactory machines = GateMachine(GetParam());

  const ExperimentResult first = RunTwiceExpectIdentical(config, machines);
  // The gate must be exercising what it claims to: a crash that recovered
  // consistently on every run, with real multi-thread interleaving.
  for (const RunResult& run : first.runs) {
    ASSERT_TRUE(run.crash_report.has_value());
    EXPECT_TRUE(run.crash_report->recovered_consistent);
    EXPECT_EQ(run.per_thread_ops.size(), 4u);
  }
}

// The same purity contract under the device-fault engine: retries, backoff,
// remapping and (on the journaled file systems) a possible mid-run
// remount-read-only must all replay bit-identically from (config, seed).
TEST_P(DeterminismGate, FaultyRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();
  config.crash.reset();  // degraded mode instead of a crash
  config.continue_on_error = true;
  const MachineFactory machines = GateMachine(GetParam(), [](MachineConfig& machine_config) {
    machine_config.faults.transient_rate = 0.05;
    machine_config.faults.persistent_rate = 0.01;
    machine_config.faults.slow_rate = 0.01;
    machine_config.faults.region_sectors = 256;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
  });

  const ExperimentResult first = RunTwiceExpectIdentical(config, machines);
  // The gate must actually be exercising the fault machinery.
  for (const RunResult& run : first.runs) {
    EXPECT_GT(run.fault.device_errors, 0u);
    EXPECT_GT(run.fault.retries, 0u);
  }
}

// Crash × fault interaction (the two scenario axes together): a run that
// remaps bad regions mid-flight and then crashes must keep the ShadowDisk
// durable map, the journal replay and the replayed-prefix consistency check
// agreeing — twice, bit-identically. Regression for the remap/crash
// interaction: a remap redirects LBAs *below* the block layer, so the
// shadow map (keyed by request LBA) must be oblivious to it.
TEST_P(DeterminismGate, CrashWithFaultsRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();  // crash at op 600, replay check on
  config.continue_on_error = true;
  const MachineFactory machines = GateMachine(GetParam(), [](MachineConfig& machine_config) {
    machine_config.faults.transient_rate = 0.05;
    machine_config.faults.persistent_rate = 0.02;
    machine_config.faults.region_sectors = 256;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
  });

  const ExperimentResult first = RunTwiceExpectIdentical(config, machines);
  // Both axes must really have fired: remaps before the crash, and a crash
  // whose replayed prefix still fscks clean.
  uint64_t remaps = 0;
  for (const RunResult& run : first.runs) {
    remaps += run.fault.remapped_regions;
    ASSERT_TRUE(run.crash_report.has_value());
    EXPECT_TRUE(run.crash_report->recovered_consistent);
  }
  EXPECT_GT(remaps, 0u);
}

// The redundancy layer under the same contract: a 4-thread run on a
// degraded mirror — one device killed mid-run, hot-spare rebuild racing
// foreground traffic, background scrub walking the survivors — must digest
// bit-identically twice. Replica selection ties, scrub cadence and rebuild
// progress are all deterministic decisions this test pins.
TEST_P(DeterminismGate, DegradedArrayRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();
  config.crash.reset();
  config.continue_on_error = true;
  const MachineFactory machines = GateMachine(GetParam(), [](MachineConfig& machine_config) {
    machine_config.faults.transient_rate = 0.02;
    machine_config.faults.persistent_rate = 0.01;
    machine_config.faults.region_sectors = 256;
    machine_config.faults.device_kill_time = 20 * kSecond;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
    machine_config.array.geometry = ArrayGeometry::kMirror;
    machine_config.array.devices = 2;
    machine_config.array.hot_spares = 1;
    machine_config.array.scrub = true;
  });

  const ExperimentResult first = RunTwiceExpectIdentical(config, machines);
  // The gate must actually be exercising the degraded machinery: a noticed
  // device death, a rebuild, and scrub coverage.
  for (const RunResult& run : first.runs) {
    EXPECT_EQ(run.array.devices, 3u);
    EXPECT_EQ(run.array.device_failures, 1u);
    EXPECT_EQ(run.array.rebuilds_started, 1u);
    EXPECT_GT(run.array.scrub_regions_scanned, 0u);
    EXPECT_EQ(run.per_thread_ops.size(), 4u);
  }
}

// The multi-queue SSD under the canonical gate scenario: 4 threads of
// fsync-heavy postmark, crash at op 600, replay check on — against the
// flash device (per-channel FIFO scheduling, FTL page mapping, recovery
// replay on an SSD recovery device). The FTL has no RNG of its own, so
// the digest pins it to being a pure function of the request sequence.
TEST_P(DeterminismGate, SsdRunTwiceBitIdenticalDigest) {
  const ExperimentConfig config = GateConfig();
  const MachineFactory machines = GateMachine(GetParam(), [](MachineConfig& machine_config) {
    machine_config.device = DeviceKind::kSsd;
  });

  const ExperimentResult first = RunTwiceExpectIdentical(config, machines);
  for (const RunResult& run : first.runs) {
    ASSERT_TRUE(run.crash_report.has_value());
    EXPECT_TRUE(run.crash_report->recovered_consistent);
    EXPECT_EQ(run.per_thread_ops.size(), 4u);
  }
}

// A mixed mirror — flash primary, spinning secondary — under faults, a
// mid-run device kill, hot-spare rebuild and background scrub. Replica
// selection now picks between devices with wildly different service
// times; the digest pins that choice (and the rebuild/scrub interleaving
// against the multi-queue device) to (config, seed).
TEST_P(DeterminismGate, SsdMirrorRunTwiceBitIdenticalDigest) {
  ExperimentConfig config = GateConfig();
  config.crash.reset();
  config.continue_on_error = true;
  const MachineFactory machines = GateMachine(GetParam(), [](MachineConfig& machine_config) {
    machine_config.faults.transient_rate = 0.02;
    machine_config.faults.persistent_rate = 0.01;
    machine_config.faults.region_sectors = 256;
    machine_config.faults.device_kill_time = 20 * kSecond;
    machine_config.retry = RetryPolicy{4, FromMillis(0.2), 2.0, /*remap=*/true};
    machine_config.array.geometry = ArrayGeometry::kMirror;
    machine_config.array.devices = 2;
    machine_config.array.hot_spares = 1;
    machine_config.array.scrub = true;
    machine_config.array.device_kinds = {DeviceKind::kSsd, DeviceKind::kHdd};
  });

  const ExperimentResult first = RunTwiceExpectIdentical(config, machines);
  for (const RunResult& run : first.runs) {
    EXPECT_EQ(run.array.devices, 3u);
    EXPECT_EQ(run.array.device_failures, 1u);
    EXPECT_EQ(run.array.rebuilds_started, 1u);
    EXPECT_GT(run.array.scrub_regions_scanned, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFs, DeterminismGate,
                         ::testing::Values(FsKind::kExt2, FsKind::kExt3, FsKind::kXfs),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           switch (info.param) {
                             case FsKind::kExt2: return "ext2";
                             case FsKind::kExt3: return "ext3";
                             case FsKind::kXfs: return "xfs";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace fsbench
