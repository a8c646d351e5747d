// The host-parallelism determinism gate: RunCells (src/core/parallel_runner)
// must be unobservable in results. The contract has three legs —
//   1. jobs is not a parameter of the output: a randomized sweep matrix and
//      a multi-run experiment digest bit-identically — every field of every
//      run (tests/run_digest.h) — at --jobs=1 and --jobs=8 (8 on a 1-core
//      host also proves workers > cores is safe);
//   2. the pool is reusable and stable: running the same sweep twice at
//      jobs=8 digests identically (no cross-run pool state);
//   3. failure is cell-local: one throwing cell reports its own error and
//      neighbours complete untouched.
// Plus unit coverage for ResolveJobs / nested-inline execution.
#include "src/core/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/sweep.h"
#include "src/core/workloads/postmark_like.h"
#include "src/core/workloads/random_read.h"
#include "src/util/rng.h"
#include "tests/run_digest.h"

namespace fsbench {
namespace {

MachineFactory TestMachine() {
  return [](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.seed = seed;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

// A sweep whose parameters are themselves drawn from a seeded Rng: cells of
// unequal cost in arbitrary sizes, so the steal schedule differs between
// jobs values — exactly what must NOT show in the digest.
SweepMatrixResult RandomizedSweep(int jobs, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> file_mib;
  for (int r = 0; r < 3; ++r) {
    file_mib.push_back(static_cast<double>(16 + 16 * rng.NextBelow(4)));
  }
  std::vector<double> io_kib;
  for (int c = 0; c < 3; ++c) {
    io_kib.push_back(static_cast<double>(4ULL << rng.NextBelow(4)));
  }
  SweepMatrix matrix("file MiB", file_mib, "io KiB", io_kib);
  ExperimentConfig config;
  config.runs = 2;
  config.duration = 500 * kMillisecond;
  config.prewarm = true;
  config.base_seed = seed;
  config.jobs = jobs;
  return matrix.Run(config, TestMachine(), [](double file, double io) {
    RandomReadConfig workload_config;
    workload_config.file_size = static_cast<Bytes>(file) * kMiB;
    workload_config.io_size = static_cast<Bytes>(io) * kKiB;
    return std::make_unique<RandomReadWorkload>(workload_config);
  });
}

ExperimentResult MultiRunExperiment(int jobs) {
  ExperimentConfig config;
  config.runs = 6;
  config.duration = 500 * kMillisecond;
  config.threads = 2;
  config.base_seed = 7;
  config.jobs = jobs;
  PostmarkConfig pm;
  pm.initial_files = 50;
  return Experiment(config).Run(TestMachine(), MtPostmarkFactory(pm));
}

// --- RunCells unit coverage ---------------------------------------------

TEST(RunCellsTest, ExecutesEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  const std::vector<std::string> errors =
      RunCells(hits.size(), 8, [&](size_t i) { ++hits[i]; });
  ASSERT_EQ(errors.size(), hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_TRUE(errors[i].empty());
  }
}

TEST(RunCellsTest, ZeroAndSingleCountsWork) {
  EXPECT_TRUE(RunCells(0, 8, [](size_t) {}).empty());
  int calls = 0;
  const std::vector<std::string> errors = RunCells(1, 8, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_TRUE(errors[0].empty());
}

TEST(RunCellsTest, ThrowingCellFailsAloneWithItsMessage) {
  std::vector<std::atomic<int>> hits(16);
  const std::vector<std::string> errors = RunCells(hits.size(), 8, [&](size_t i) {
    ++hits[i];
    if (i == 5) {
      throw std::runtime_error("cell five exploded");
    }
    if (i == 11) {
      throw 42;  // non-std exception path
    }
  });
  EXPECT_EQ(errors[5], "cell five exploded");
  EXPECT_EQ(errors[11], "unknown exception");
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    if (i != 5 && i != 11) {
      EXPECT_TRUE(errors[i].empty()) << "index " << i << ": " << errors[i];
    }
  }
}

TEST(RunCellsTest, NestedCallsRunInlineOnTheWorker) {
  // A cell body that calls RunCells again must not spawn a second pool:
  // the nested call reports InParallelCell() and runs on this thread.
  std::vector<int> nested_calls(4, 0);
  const std::vector<std::string> errors = RunCells(4, 4, [&](size_t i) {
    EXPECT_TRUE(InParallelCell());
    const std::vector<std::string> inner =
        RunCells(8, 4, [&](size_t) { ++nested_calls[i]; });
    for (const std::string& e : inner) {
      EXPECT_TRUE(e.empty());
    }
  });
  for (size_t i = 0; i < nested_calls.size(); ++i) {
    EXPECT_TRUE(errors[i].empty());
    EXPECT_EQ(nested_calls[i], 8);
  }
  EXPECT_FALSE(InParallelCell());
}

TEST(ResolveJobsTest, PositivePassesThroughNonPositiveMeansHostCores) {
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(5), 5);
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_GE(ResolveJobs(-3), 1);
}

// --- The determinism contract -------------------------------------------

TEST(ParallelDeterminismTest, SweepDigestIdenticalAcrossJobs) {
  const uint64_t serial = DigestOf(RandomizedSweep(/*jobs=*/1, /*seed=*/42));
  const uint64_t parallel = DigestOf(RandomizedSweep(/*jobs=*/8, /*seed=*/42));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminismTest, SweepDigestStableAcrossRepeatedParallelRuns) {
  const uint64_t first = DigestOf(RandomizedSweep(/*jobs=*/8, /*seed=*/99));
  const uint64_t second = DigestOf(RandomizedSweep(/*jobs=*/8, /*seed=*/99));
  EXPECT_EQ(first, second);
}

TEST(ParallelDeterminismTest, DifferentSeedsActuallyDiffer) {
  // Guards the digest itself: if the digest collapsed to a constant, the
  // equality tests above would pass vacuously.
  EXPECT_NE(DigestOf(RandomizedSweep(/*jobs=*/8, /*seed=*/42)),
            DigestOf(RandomizedSweep(/*jobs=*/8, /*seed=*/43)));
}

TEST(ParallelDeterminismTest, ExperimentRepetitionsDigestIdenticalAcrossJobs) {
  const uint64_t serial = DigestOf(MultiRunExperiment(/*jobs=*/1));
  const uint64_t parallel = DigestOf(MultiRunExperiment(/*jobs=*/8));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminismTest, ThrowingSweepCellDoesNotPoisonNeighbours) {
  // Row param 0 makes the workload factory throw for the middle column
  // only; the other cells must come back ok with real results.
  SweepMatrix matrix("file MiB", {32}, "io KiB", {4, 0, 16});
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 200 * kMillisecond;
  config.jobs = 8;
  const SweepMatrixResult result =
      matrix.Run(config, TestMachine(), [](double file, double io) {
        if (io == 0.0) {
          throw std::runtime_error("bad cell parameter");
        }
        RandomReadConfig workload_config;
        workload_config.file_size = static_cast<Bytes>(file) * kMiB;
        workload_config.io_size = static_cast<Bytes>(io) * kKiB;
        return std::make_unique<RandomReadWorkload>(workload_config);
      });
  ASSERT_EQ(result.cells.size(), 3u);
  EXPECT_TRUE(result.at(0, 0).ok);
  EXPECT_FALSE(result.at(0, 1).ok);
  EXPECT_TRUE(result.at(0, 2).ok);
  EXPECT_GT(result.at(0, 0).throughput.mean, 0.0);
  EXPECT_GT(result.at(0, 2).throughput.mean, 0.0);
}

}  // namespace
}  // namespace fsbench
