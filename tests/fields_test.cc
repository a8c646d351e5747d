// The one counter schema (src/util/fields.h): field visitation itself, and
// the two guarantees derived from it — every field of every stats struct
// reaches the determinism digest, and Machine's per-device aggregation sums
// every field (max for the queue-depth high-water mark).
#include "src/util/fields.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "src/sim/machine.h"
#include "tests/run_digest.h"

namespace fsbench {
namespace {

struct Mixed {
  uint64_t a = 0;
  bool b = false;
  Nanos c = 0;
  double d = 0.0;
};

TEST(ForEachFieldTest, PairwiseVisitPairsFieldsInDeclarationOrder) {
  static_assert(kFieldCount<Mixed> == 4);
  Mixed total;
  const Mixed step{2, true, 5, 1.5};
  for (int i = 0; i < 3; ++i) {
    ForEachField(total, step, [](auto& sum, const auto& value) { sum += value; });
  }
  EXPECT_EQ(total.a, 6u);
  EXPECT_TRUE(total.b);
  EXPECT_EQ(total.c, 15);
  EXPECT_EQ(total.d, 4.5);
}

// Sets field #i (declaration order) of `s` to 1.
template <typename Stats>
void SetField(Stats& s, size_t i) {
  size_t index = 0;
  ForEachField(s, [&](auto& field) {
    if (index++ == i) {
      field = 1;
    }
  });
}

// Every field of the struct `slot` selects inside a RunResult moves the
// run digest, and no two fields move it to the same value (a value
// migrating between fields cannot cancel out).
template <typename Stats, typename Slot>
void ExpectEveryFieldDigested(Slot slot) {
  RunResult base;
  slot(base);
  const uint64_t base_digest = DigestRunResult(base);
  std::set<uint64_t> digests;
  for (size_t i = 0; i < kFieldCount<Stats>; ++i) {
    RunResult changed = base;
    SetField(slot(changed), i);
    const uint64_t digest = DigestRunResult(changed);
    EXPECT_NE(digest, base_digest) << "field #" << i << " is not digested";
    digests.insert(digest);
  }
  EXPECT_EQ(digests.size(), kFieldCount<Stats>);
}

TEST(RunDigestTest, EveryStatsFieldReachesTheDigest) {
  ExpectEveryFieldDigested<VfsStats>([](RunResult& r) -> VfsStats& { return r.vfs_stats; });
  ExpectEveryFieldDigested<DiskStats>([](RunResult& r) -> DiskStats& { return r.disk_stats; });
  ExpectEveryFieldDigested<IoSchedulerStats>(
      [](RunResult& r) -> IoSchedulerStats& { return r.scheduler_stats; });
  ExpectEveryFieldDigested<FaultSummary>([](RunResult& r) -> FaultSummary& { return r.fault; });
  ExpectEveryFieldDigested<ArraySummary>([](RunResult& r) -> ArraySummary& { return r.array; });
  ExpectEveryFieldDigested<CrashReport>([](RunResult& r) -> CrashReport& {
    if (!r.crash_report.has_value()) {
      r.crash_report.emplace();
    }
    return *r.crash_report;
  });
}

TEST(RunDigestTest, CrashReportPresenceReachesTheDigest) {
  RunResult with_report;
  with_report.crash_report.emplace();
  EXPECT_NE(DigestRunResult(RunResult{}), DigestRunResult(with_report));
}

TEST(MachineAggregateTest, MirrorAggregatesAreFieldWiseSumsOfItsDevices) {
  MachineConfig config = PaperTestbedConfig();
  config.seed = 5;
  config.array.geometry = ArrayGeometry::kMirror;
  config.array.devices = 2;
  Machine machine(FsKind::kExt3, config);
  ASSERT_EQ(machine.device_count(), 2u);

  // Mirrored writes reach both devices; cold reads spread over them.
  ASSERT_EQ(machine.vfs().MakeFile("/f", 4 * kMiB), FsStatus::kOk);
  const auto fd = machine.vfs().Open("/f");
  ASSERT_TRUE(fd.ok());
  for (int i = 0; i < 256; ++i) {
    if (i % 4 == 0) {
      ASSERT_TRUE(machine.vfs().Write(fd.value, (i % 64) * 4096, 4096).ok());
    } else {
      ASSERT_TRUE(machine.vfs().Read(fd.value, ((i * 7) % 1024) * 4096, 4096).ok());
    }
    if (i % 32 == 0) {
      ASSERT_EQ(machine.vfs().Fsync(fd.value), FsStatus::kOk);
    }
  }
  machine.vfs().SyncAll();

  // The expected totals are built pairwise from the two devices; the
  // pairwise visit itself is pinned by ForEachFieldTest above.
  DiskStats disk_sum = machine.disk(0).stats();
  ForEachField(disk_sum, machine.disk(1).stats(), [](auto& sum, const auto& v) { sum += v; });
  ASSERT_GT(machine.disk(0).stats().writes, 0u);
  ASSERT_GT(machine.disk(1).stats().writes, 0u);
  EXPECT_EQ(machine.AggregateDiskStats(), disk_sum);

  const IoSchedulerStats& s0 = machine.scheduler(0).stats();
  const IoSchedulerStats& s1 = machine.scheduler(1).stats();
  ASSERT_GT(s0.max_queue_depth, 0u);
  ASSERT_GT(s1.max_queue_depth, 0u);
  IoSchedulerStats sched_sum = s0;
  ForEachField(sched_sum, s1, [](auto& sum, const auto& v) { sum += v; });
  sched_sum.max_queue_depth = std::max(s0.max_queue_depth, s1.max_queue_depth);
  EXPECT_EQ(machine.AggregateSchedulerStats(), sched_sum);
}

}  // namespace
}  // namespace fsbench
