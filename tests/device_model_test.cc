// DeviceModel conformance suite: contracts every device kind (rotational
// DiskModel, multi-channel SsdModel) must honour identically, because the
// block layer, fault engine and redundancy layer program against the base
// class — determinism from (params, seed), fault-plan verdict parity across
// kinds, remap/spare accounting, the whole-device death latch, and the
// purity of the scrub's RegionLatentBad probe. Plus the SSD-specific
// physics: channel striping, flat latencies, and GC write amplification.
#include "src/sim/device_model.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/sim/ssd_model.h"
#include "src/util/rng.h"
#include "tests/run_digest.h"

namespace fsbench {
namespace {

constexpr Bytes kSmallCapacity = 256 * kMiB;

std::unique_ptr<DeviceModel> MakeDevice(DeviceKind kind, uint64_t seed) {
  if (kind == DeviceKind::kSsd) {
    SsdParams params;
    params.capacity = kSmallCapacity;
    return std::make_unique<SsdModel>(params);
  }
  DiskParams params;
  params.capacity = kSmallCapacity;
  return std::make_unique<DiskModel>(params, seed);
}

class DeviceConformance : public ::testing::TestWithParam<DeviceKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, DeviceConformance,
                         ::testing::Values(DeviceKind::kHdd, DeviceKind::kSsd),
                         [](const ::testing::TestParamInfo<DeviceKind>& info) {
                           return info.param == DeviceKind::kSsd ? "Ssd" : "Hdd";
                         });

TEST_P(DeviceConformance, DeterministicFromParamsAndSeed) {
  auto a = MakeDevice(GetParam(), 42);
  auto b = MakeDevice(GetParam(), 42);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const uint64_t lba = rng.NextBelow(a->total_sectors() / 8 - 8) * 8;
    const IoKind kind = rng.NextBelow(2) == 0 ? IoKind::kRead : IoKind::kWrite;
    const IoRequest req{kind, lba, 8};
    const AccessResult ra = a->AccessEx(req, 0);
    const AccessResult rb = b->AccessEx(req, 0);
    ASSERT_EQ(ra.service, rb.service) << "op " << i;
    ASSERT_EQ(ra.fault, rb.fault) << "op " << i;
  }
  EXPECT_EQ(a->stats(), b->stats());
}

TEST_P(DeviceConformance, FaultPlanVerdictsMatchAcrossKinds) {
  // The plan's verdicts are a pure function of (config, seed) and the call
  // sequence — never of the device kind consuming them. An HDD and an SSD
  // with the same plan must agree on every region verdict and every
  // per-request fault kind.
  FaultPlanConfig config;
  config.persistent_rate = 0.1;
  config.transient_rate = 0.05;
  auto device = MakeDevice(GetParam(), 3);
  auto hdd_ref = MakeDevice(DeviceKind::kHdd, 3);
  device->EnableFaults(config, 77);
  hdd_ref->EnableFaults(config, 77);

  for (uint64_t lba = 0; lba < device->total_sectors(); lba += 16 * config.region_sectors) {
    EXPECT_EQ(device->fault_plan()->RegionIsBad(lba, 0),
              hdd_ref->fault_plan()->RegionIsBad(lba, 0))
        << "lba " << lba;
  }
  // Same request sequence, same transient draw stream: fault kinds agree
  // one-to-one even though service times differ wildly across kinds.
  Rng rng(11);
  uint64_t faults = 0;
  for (int i = 0; i < 300; ++i) {
    const uint64_t lba = rng.NextBelow(device->total_sectors() / 8 - 8) * 8;
    const IoRequest req{IoKind::kRead, lba, 8};
    const AccessResult rd = device->AccessEx(req, 0);
    const AccessResult rh = hdd_ref->AccessEx(req, 0);
    ASSERT_EQ(rd.fault, rh.fault) << "op " << i;
    faults += rd.fault != FaultKind::kNone ? 1 : 0;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_EQ(device->stats().errors, hdd_ref->stats().errors);
}

TEST_P(DeviceConformance, InjectedErrorFailsUntilRemappedWithSpareAccounting) {
  auto device = MakeDevice(GetParam(), 5);
  device->ConfigureSpares(/*region_sectors=*/2048, /*spare_regions=*/2);
  const uint64_t bad = 8 * 2048;  // region 8
  device->InjectError(bad);

  const IoRequest req{IoKind::kRead, bad, 8};
  const AccessResult failed = device->AccessEx(req, 0);
  EXPECT_FALSE(failed.service.has_value());
  EXPECT_EQ(failed.fault, FaultKind::kPersistent);
  EXPECT_GT(failed.fail_time, 0);  // the doomed attempt occupied the device
  EXPECT_EQ(device->stats().errors, 1u);
  EXPECT_EQ(device->stats().total_fault_time, failed.fail_time);

  ASSERT_TRUE(device->RemapRegion(bad));
  EXPECT_EQ(device->remapped_regions(), 1u);
  EXPECT_EQ(device->spare_regions_left(), 1u);
  // The redirected request reads the spare, not the bad media.
  EXPECT_TRUE(device->AccessEx(req, 0).service.has_value());
  // Idempotent re-remap spends no second spare.
  EXPECT_TRUE(device->RemapRegion(bad));
  EXPECT_EQ(device->spare_regions_left(), 1u);
}

TEST_P(DeviceConformance, DeviceDeathLatches) {
  FaultPlanConfig config;
  config.device_kill_time = 1 * kSecond;
  auto device = MakeDevice(GetParam(), 9);
  device->EnableFaults(config, 9);

  EXPECT_FALSE(device->IsDead(500 * kMillisecond));
  EXPECT_TRUE(device->AccessEx({IoKind::kRead, 0, 8}, 0).service.has_value());
  EXPECT_TRUE(device->IsDead(2 * kSecond));
  // Latched: an earlier `now` cannot resurrect the device.
  EXPECT_TRUE(device->IsDead(0));
  EXPECT_TRUE(device->dead());
  const AccessResult dead = device->AccessEx({IoKind::kRead, 0, 8}, 2 * kSecond);
  EXPECT_FALSE(dead.service.has_value());
  // A dead device has nothing to remap to.
  EXPECT_FALSE(device->RemapRegion(0));
}

TEST_P(DeviceConformance, RegionLatentBadIsAPureProbe) {
  FaultPlanConfig config;
  config.persistent_rate = 0.2;
  auto device = MakeDevice(GetParam(), 13);
  device->EnableFaults(config, 13);

  uint64_t bad_lba = ~0ULL;
  for (uint64_t lba = 0; lba < device->total_sectors(); lba += config.region_sectors) {
    if (device->RegionLatentBad(lba, 0)) {
      bad_lba = lba;
      break;
    }
  }
  ASSERT_NE(bad_lba, ~0ULL);
  const DiskStats before = device->stats();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(device->RegionLatentBad(bad_lba, 0));
  }
  // No stats movement, no state movement: probing is free and repeatable.
  EXPECT_EQ(device->stats(), before);
  // A remapped region stops reporting latent-bad (it is repaired).
  ASSERT_TRUE(device->RemapRegion(bad_lba));
  EXPECT_FALSE(device->RegionLatentBad(bad_lba, 0));
}

// --- SSD-specific physics ---

TEST(SsdModelTest, ChannelStripingRoundRobin) {
  SsdParams params;
  params.capacity = kSmallCapacity;
  SsdModel ssd(params);
  EXPECT_EQ(ssd.channels(), params.channels);
  const uint64_t page_sectors = ssd.sectors_per_page();
  for (uint64_t page = 0; page < 64; ++page) {
    EXPECT_EQ(ssd.ChannelOf(page * page_sectors), page % params.channels) << "page " << page;
  }
}

TEST(SsdModelTest, FlatReadLatencyIndependentOfDistance) {
  SsdParams params;
  params.capacity = kSmallCapacity;
  SsdModel ssd(params);
  const IoRequest near{IoKind::kRead, 0, 8};
  const IoRequest far{IoKind::kRead, ssd.total_sectors() - 8, 8};
  const auto a = ssd.AccessEx(near, 0);
  const auto b = ssd.AccessEx(far, 0);
  ASSERT_TRUE(a.service.has_value());
  ASSERT_TRUE(b.service.has_value());
  // No seek, no rotation: distance costs nothing.
  EXPECT_EQ(*a.service, *b.service);
  EXPECT_EQ(*a.service,
            params.command_overhead + params.read_latency + ssd.page_transfer_time());
  EXPECT_EQ(ssd.stats().seeks, 0u);
  EXPECT_EQ(ssd.stats().total_seek_time, 0);
  EXPECT_EQ(ssd.stats().total_rotation_time, 0);
}

TEST(SsdModelTest, LargeRequestPaysPerChannelTransferShare) {
  SsdParams params;
  params.capacity = kSmallCapacity;
  SsdModel ssd(params);
  // 16 pages spread over 8 channels: 2 pages per channel move serially.
  const uint32_t sectors = static_cast<uint32_t>(16 * ssd.sectors_per_page());
  const auto big = ssd.AccessEx({IoKind::kRead, 0, sectors}, 0);
  ASSERT_TRUE(big.service.has_value());
  EXPECT_EQ(*big.service,
            params.command_overhead + params.read_latency + 2 * ssd.page_transfer_time());
}

TEST(SsdModelTest, SustainedRandomWritesTriggerGcAndChargeTheWriter) {
  SsdParams params;
  params.capacity = 16 * kMiB;  // tiny device: GC pressure arrives fast
  params.overprovision = 0.10;
  SsdModel ssd(params);
  const uint64_t pages = params.capacity / params.page_bytes;
  Rng rng(3);
  Nanos clean_write = 0;
  Nanos max_write = 0;
  // Overwrite randomly at ~3x logical capacity: must exhaust free blocks.
  for (uint64_t i = 0; i < pages * 3; ++i) {
    const uint64_t page = rng.NextBelow(pages);
    const auto w = ssd.AccessEx(
        {IoKind::kWrite, page * ssd.sectors_per_page(), static_cast<uint32_t>(ssd.sectors_per_page())}, 0);
    ASSERT_TRUE(w.service.has_value());
    if (i == 0) {
      clean_write = *w.service;
    }
    max_write = std::max(max_write, *w.service);
  }
  EXPECT_GT(ssd.stats().gc_erases, 0u);
  EXPECT_GT(ssd.stats().gc_page_moves, 0u);
  EXPECT_GT(ssd.stats().total_gc_time, 0);
  // Some write visibly stalled behind a reclaim (write amplification).
  EXPECT_GT(max_write, clean_write);
  // Reads never pay GC.
  const DiskStats before = ssd.stats();
  ASSERT_TRUE(ssd.AccessEx({IoKind::kRead, 0, 8}, 0).service.has_value());
  EXPECT_EQ(ssd.stats().total_gc_time, before.total_gc_time);
}

TEST(SsdModelTest, GcKeepsFreeBlocksAboveFloor) {
  SsdParams params;
  params.capacity = 16 * kMiB;
  SsdModel ssd(params);
  const uint64_t pages = params.capacity / params.page_bytes;
  Rng rng(5);
  for (uint64_t i = 0; i < pages * 4; ++i) {
    const uint64_t page = rng.NextBelow(pages);
    ASSERT_TRUE(ssd.AccessEx({IoKind::kWrite, page * ssd.sectors_per_page(),
                              static_cast<uint32_t>(ssd.sectors_per_page())},
                             0)
                    .service.has_value());
  }
  // GC's contract: the pool never wedges at zero — every channel can still
  // take a host write.
  for (uint32_t c = 0; c < params.channels; ++c) {
    EXPECT_GT(ssd.FreeBlocks(c), 0u) << "channel " << c;
  }
}

TEST(SsdModelTest, FaultedWriteLeavesFtlUntouched) {
  SsdParams params;
  params.capacity = kSmallCapacity;
  SsdModel a(params);
  SsdModel b(params);
  b.InjectError(0);
  const uint32_t page_sectors = static_cast<uint32_t>(a.sectors_per_page());
  // b's first write fails (no FTL movement); after clearing, both devices
  // see the same request sequence and must land in identical states.
  EXPECT_FALSE(b.AccessEx({IoKind::kWrite, 0, page_sectors}, 0).service.has_value());
  EXPECT_EQ(b.stats().gc_erases, 0u);
  b.ClearErrors();
  for (uint64_t i = 0; i < 32; ++i) {
    const IoRequest req{IoKind::kWrite, i * page_sectors, page_sectors};
    ASSERT_EQ(a.AccessEx(req, 0).service, b.AccessEx(req, 0).service) << "op " << i;
  }
}

}  // namespace
}  // namespace fsbench
