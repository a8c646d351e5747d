#include "src/sim/flash_tier.h"

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/workloads/random_read.h"
#include "src/sim/machine.h"
#include "tests/run_digest.h"

namespace fsbench {
namespace {

FlashTierConfig SmallTier(size_t pages) {
  FlashTierConfig config;
  config.capacity = pages * 4 * kKiB;
  return config;
}

PageKey Key(uint64_t index) { return PageKey{1, index}; }

// RemoveFile (and everything downstream of it) must not depend on the hash
// table's bucket count: two tiers — one freshly built, one pre-rehashed to a
// much larger table, so every key lands in different buckets in a different
// order — are driven through an identical op sequence with a mid-stream
// RemoveFile, and must agree on every stat and every membership probe. This
// is the regression test for the old hash-order RemoveFile walk.
TEST(FlashTierTest, RemoveFileDeterministicAcrossRehash) {
  const FlashTierConfig config = SmallTier(32);
  FlashTier fresh(config);
  FlashTier rehashed(config);
  rehashed.RehashForTest(4096);

  auto drive = [](FlashTier& tier) {
    // Interleave three files so RemoveFile has scattered matches.
    for (uint64_t i = 0; i < 24; ++i) {
      tier.Insert(PageKey{1, i}, 100 + i);
      tier.Insert(PageKey{2, i}, 200 + i);
      tier.Insert(PageKey{3, i}, 300 + i);  // overflows capacity: evictions
    }
    tier.RemoveFile(2);
    // Post-removal traffic: hit/miss pattern and further evictions must be
    // unaffected by the bucket count the removal walked.
    for (uint64_t i = 0; i < 24; ++i) {
      tier.LookupAndPromote(PageKey{1, i});
      tier.LookupAndPromote(PageKey{2, i});
      tier.Insert(PageKey{4, i}, 400 + i);
    }
  };
  drive(fresh);
  drive(rehashed);

  EXPECT_EQ(fresh.stats(), rehashed.stats());
  EXPECT_EQ(fresh.size(), rehashed.size());
  for (uint64_t ino = 1; ino <= 4; ++ino) {
    for (uint64_t i = 0; i < 24; ++i) {
      EXPECT_EQ(fresh.Contains(PageKey{ino, i}), rehashed.Contains(PageKey{ino, i}))
          << "ino " << ino << " page " << i;
    }
  }
  // No entry of the removed file survives in either tier.
  for (uint64_t i = 0; i < 24; ++i) {
    EXPECT_FALSE(fresh.Contains(PageKey{2, i}));
  }
}

TEST(FlashTierTest, MissThenHit) {
  FlashTier tier(SmallTier(8));
  EXPECT_FALSE(tier.LookupAndPromote(Key(0)));
  tier.Insert(Key(0), 100);
  EXPECT_TRUE(tier.Contains(Key(0)));
  EXPECT_TRUE(tier.LookupAndPromote(Key(0)));
  // Exclusive tiering: the promotion removed the page.
  EXPECT_FALSE(tier.Contains(Key(0)));
  EXPECT_EQ(tier.stats().hits, 1u);
  EXPECT_EQ(tier.stats().misses, 1u);
}

TEST(FlashTierTest, CapacityEnforcedLru) {
  FlashTier tier(SmallTier(3));
  tier.Insert(Key(0), 0);
  tier.Insert(Key(1), 1);
  tier.Insert(Key(2), 2);
  tier.Insert(Key(3), 3);  // evicts 0 (LRU)
  EXPECT_EQ(tier.size(), 3u);
  EXPECT_FALSE(tier.Contains(Key(0)));
  EXPECT_TRUE(tier.Contains(Key(1)));
  EXPECT_EQ(tier.stats().evictions, 1u);
}

TEST(FlashTierTest, ReinsertRefreshesRecency) {
  FlashTier tier(SmallTier(2));
  tier.Insert(Key(0), 0);
  tier.Insert(Key(1), 1);
  tier.Insert(Key(0), 0);  // refresh: 1 is now LRU
  tier.Insert(Key(2), 2);
  EXPECT_TRUE(tier.Contains(Key(0)));
  EXPECT_FALSE(tier.Contains(Key(1)));
}

TEST(FlashTierTest, RemoveAndRemoveFile) {
  FlashTier tier(SmallTier(8));
  tier.Insert(PageKey{1, 0}, 0);
  tier.Insert(PageKey{1, 1}, 1);
  tier.Insert(PageKey{2, 0}, 2);
  tier.Remove(PageKey{1, 0});
  EXPECT_FALSE(tier.Contains(PageKey{1, 0}));
  tier.RemoveFile(1);
  EXPECT_FALSE(tier.Contains(PageKey{1, 1}));
  EXPECT_TRUE(tier.Contains(PageKey{2, 0}));
  tier.Clear();
  EXPECT_EQ(tier.size(), 0u);
}

TEST(FlashTierTest, RamEvictionsDemoteThroughTheBatchSink) {
  // Regression for the slab cache's EvictedBatch reporting: pages evicted
  // from a full RAM cache must still reach the flash tier with their backing
  // block intact.
  PageCache ram(2, EvictionPolicyKind::kLru);
  FlashTier tier(SmallTier(8));
  PageCache::EvictedBatch evicted;
  for (uint64_t i = 0; i < 5; ++i) {
    evicted.clear();
    ram.Insert(Key(i), 100 + i, /*dirty=*/false, &evicted);
    for (const PageCache::Evicted& page : evicted) {
      ASSERT_NE(page.block, kInvalidBlock);
      tier.Insert(page.key, page.block);
    }
  }
  // Keys 0..2 were evicted (in LRU order) and demoted; 3 and 4 are in RAM.
  EXPECT_EQ(tier.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(tier.Contains(Key(i))) << i;
  }
  EXPECT_TRUE(ram.Contains(Key(3)));
  EXPECT_TRUE(ram.Contains(Key(4)));
}

// --- End-to-end through Machine/Vfs ---

MachineFactory FlashMachine(Bytes flash_capacity = 1 * kGiB) {
  return [flash_capacity](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.seed = seed;
    FlashTierConfig flash;
    flash.capacity = flash_capacity;
    config.flash = flash;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

TEST(FlashMachineTest, MachineExposesTheTier) {
  MachineConfig config = PaperTestbedConfig();
  Machine plain(FsKind::kExt2, config);
  EXPECT_EQ(plain.flash(), nullptr);
  config.flash = FlashTierConfig{};
  Machine tiered(FsKind::kExt2, config);
  ASSERT_NE(tiered.flash(), nullptr);
  EXPECT_EQ(tiered.flash()->capacity_pages(), (1 * kGiB) / (4 * kKiB));
}

TEST(FlashMachineTest, EvictionsDemoteIntoFlash) {
  // File slightly larger than RAM: prewarm spills the head into flash.
  auto machine = FlashMachine()(1);
  Vfs& vfs = machine->vfs();
  const Bytes file_size = 512 * kMiB;
  ASSERT_EQ(vfs.MakeFile("/big", file_size), FsStatus::kOk);
  ASSERT_EQ(vfs.PrewarmFile("/big"), FsStatus::kOk);
  EXPECT_GT(machine->flash()->size(), 0u);
}

TEST(FlashMachineTest, FlashHitIsMuchFasterThanDisk) {
  auto machine = FlashMachine()(1);
  Vfs& vfs = machine->vfs();
  ASSERT_EQ(vfs.MakeFile("/big", 512 * kMiB), FsStatus::kOk);
  ASSERT_EQ(vfs.PrewarmFile("/big"), FsStatus::kOk);
  const auto fd = vfs.Open("/big");
  ASSERT_TRUE(fd.ok());
  // Page 0 was evicted from RAM into flash during prewarm.
  ASSERT_TRUE(machine->flash()->Contains(
      PageKey{vfs.Stat("/big").value.ino, 0}));
  const Nanos t0 = machine->clock().now();
  ASSERT_TRUE(vfs.Read(fd.value, 0, 4 * kKiB).ok());
  const Nanos latency = machine->clock().now() - t0;
  EXPECT_GT(latency, 50 * kMicrosecond);   // slower than RAM
  EXPECT_LT(latency, 1 * kMillisecond);    // far faster than disk
  EXPECT_EQ(vfs.stats().flash_hits, 1u);
}

TEST(FlashMachineTest, SteadyStateThroughputHasAMiddleStep) {
  ExperimentConfig config;
  config.runs = 2;
  config.duration = 5 * kSecond;
  config.prewarm = true;
  auto run = [&config](const MachineFactory& factory, Bytes file_size) {
    RandomReadConfig workload_config;
    workload_config.file_size = file_size;
    return Experiment(config)
        .Run(factory,
             [workload_config] { return std::make_unique<RandomReadWorkload>(workload_config); })
        .throughput.mean;
  };
  const MachineFactory plain = [](uint64_t seed) {
    MachineConfig machine_config = PaperTestbedConfig();
    machine_config.seed = seed;
    return std::make_unique<Machine>(FsKind::kExt2, machine_config);
  };
  // 768 MiB: fits in RAM+flash but not in RAM.
  const double with_flash = run(FlashMachine(), 768 * kMiB);
  const double without = run(plain, 768 * kMiB);
  EXPECT_GT(with_flash, 10.0 * without);  // flash step vs disk
  // And well below the RAM plateau.
  const double ram_speed = run(FlashMachine(), 64 * kMiB);
  EXPECT_LT(with_flash, 0.8 * ram_speed);
}

TEST(FlashMachineTest, UnlinkPurgesFlashResidents) {
  auto machine = FlashMachine()(1);
  Vfs& vfs = machine->vfs();
  ASSERT_EQ(vfs.MakeFile("/victim", 512 * kMiB), FsStatus::kOk);
  ASSERT_EQ(vfs.PrewarmFile("/victim"), FsStatus::kOk);
  ASSERT_GT(machine->flash()->size(), 0u);
  ASSERT_EQ(vfs.Unlink("/victim"), FsStatus::kOk);
  EXPECT_EQ(machine->flash()->size(), 0u);
}

TEST(FlashMachineTest, DropCachesClearsBothTiers) {
  auto machine = FlashMachine()(1);
  Vfs& vfs = machine->vfs();
  ASSERT_EQ(vfs.MakeFile("/big", 512 * kMiB), FsStatus::kOk);
  ASSERT_EQ(vfs.PrewarmFile("/big"), FsStatus::kOk);
  vfs.DropCaches();
  EXPECT_EQ(vfs.cache().size(), 0u);
  EXPECT_EQ(machine->flash()->size(), 0u);
}

}  // namespace
}  // namespace fsbench
