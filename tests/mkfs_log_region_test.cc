// The ext3 journal and the XFS log are carved out of group 0's data area at
// mkfs time. A region that does not fit there must fail the run with
// kNoSpace instead of overlapping later groups' headers (which trips
// MarkRange's "already used" assertion in Debug and frees those header
// blocks in Release) or running off the end of the device (which never
// returned). tests/CMakeLists.txt gives this suite a ctest TIMEOUT so a
// regression to the hang fails instead of stalling the run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/experiment.h"
#include "src/core/workloads/random_read.h"
#include "src/sim/machine.h"

namespace fsbench {
namespace {

// 1,000-block groups with 40 header blocks: group 0 has 960 data blocks, so
// the default 8,192-block journal/log would cover groups 1-8's headers.
MachineConfig SmallGroups() {
  MachineConfig config = PaperTestbedConfig();
  config.layout.group_blocks = 1000;
  config.layout.group_header_blocks = 40;
  config.layout.inode_table_blocks = 16;
  return config;
}

RunResult RunOnce(FsKind kind, const MachineConfig& machine_config) {
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 1 * kSecond;
  const MachineFactory machine = [kind, machine_config](uint64_t seed) {
    MachineConfig seeded = machine_config;
    seeded.seed = seed;
    return std::make_unique<Machine>(kind, seeded);
  };
  const WorkloadFactory workload = [] {
    RandomReadConfig read;
    read.file_size = 1 * kMiB;
    return std::make_unique<RandomReadWorkload>(read);
  };
  return Experiment(config).Run(machine, workload).runs.front();
}

class MkfsLogRegionTest : public ::testing::TestWithParam<FsKind> {};

TEST_P(MkfsLogRegionTest, LogOverrunningGroupZeroFailsTheRun) {
  const RunResult run = RunOnce(GetParam(), SmallGroups());
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.error, FsStatus::kNoSpace);

  // Nothing was reserved past group 0's header, and no journal was attached
  // over the missing region.
  Machine machine(GetParam(), SmallGroups());
  EXPECT_EQ(machine.fs().journal(), nullptr);
  EXPECT_EQ(machine.fs().allocator().used_blocks(),
            machine.fs().allocator().group_count() * 40);
  EXPECT_TRUE(machine.fs().allocator().CheckInvariants());
}

TEST_P(MkfsLogRegionTest, LogLargerThanTheDeviceFailsTheRun) {
  MachineConfig config = PaperTestbedConfig();
  config.disk.capacity = 8000 * config.layout.block_size;  // < 256 + 8,192 blocks
  config.faults.spare_regions = 4;  // the default 64 MiB spare pool exceeds this device
  const RunResult run = RunOnce(GetParam(), config);
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.error, FsStatus::kNoSpace);
}

TEST_P(MkfsLogRegionTest, LogFillingGroupZeroExactlyRuns) {
  MachineConfig config = SmallGroups();
  config.journal_blocks = 960;
  config.xfs_log_blocks = 960;
  const RunResult run = RunOnce(GetParam(), config);
  EXPECT_TRUE(run.ok) << FsStatusName(run.error);

  Machine machine(GetParam(), config);
  EXPECT_NE(machine.fs().journal(), nullptr);
  EXPECT_EQ(machine.fs().allocator().used_blocks(),
            machine.fs().allocator().group_count() * 40 + 960);
  EXPECT_TRUE(machine.fs().allocator().CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Journaled, MkfsLogRegionTest,
                         ::testing::Values(FsKind::kExt3, FsKind::kXfs),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           return std::string(FsKindName(info.param));
                         });

}  // namespace
}  // namespace fsbench
