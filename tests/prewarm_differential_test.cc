// Twin-machine test of Vfs::PrewarmFile against a per-page spec written on
// public APIs: for each page, FileSystem::MapPage, then PageCache::Insert of
// every meta read and of the data page, with the data page's victims
// demoted into the flash tier. RAM holds 1,024 pages and flash 512, far
// below the files, so both tiers evict throughout. Files cross ext2's
// direct, single- and double-indirect boundaries, one has holes (including
// a trailing one), and a file is prewarmed twice so the second pass meets
// a warm cache with ghosts. After each prewarm the twins must agree on
// page-cache and flash-tier stats and contents, and at the end on the page
// cache's eviction order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/machine.h"
#include "src/util/units.h"

namespace fsbench {
namespace {

constexpr uint64_t kDensePages = 3000;
constexpr uint64_t kHolePages = 2500;

std::unique_ptr<Machine> SmallMachine(FsKind fs, EvictionPolicyKind eviction) {
  MachineConfig config = PaperTestbedConfig();
  config.ram = 6 * kMiB;
  config.os_reserved = 2 * kMiB;
  config.os_reserve_jitter = 0;
  config.eviction = eviction;
  FlashTierConfig flash;
  flash.capacity = 2 * kMiB;
  config.flash = flash;
  return std::make_unique<Machine>(fs, config);
}

InodeId InodeOf(Machine& m, const std::string& name) {
  MetaIo io;
  return m.fs().Lookup(kRootInode, name, &io).value;
}

// "/dense" is fully allocated; "/holes" maps stretches between holes,
// some on the chain boundaries, and its size runs past its last page.
void MakeFiles(Machine& m) {
  Vfs& vfs = m.vfs();
  ASSERT_EQ(vfs.MakeFile("/dense", kDensePages * 4 * kKiB), FsStatus::kOk);
  ASSERT_EQ(vfs.MakeFile("/holes", 0), FsStatus::kOk);
  const InodeId ino = InodeOf(m, "holes");
  MetaIo io;
  for (const uint64_t start : {0, 11, 40, 1030, 1300, 2055, 2300}) {
    for (uint64_t page = start; page < start + 9; ++page) {
      io.Reset();
      ASSERT_TRUE(m.fs().AllocatePage(ino, page, &io).ok());
    }
  }
  io.Reset();
  ASSERT_EQ(m.fs().SetSize(ino, kHolePages * 4 * kKiB, &io), FsStatus::kOk);
}

// The per-page prewarm, on public APIs only.
void SpecPrewarm(Machine& m, const std::string& name) {
  FileSystem& fs = m.fs();
  PageCache& cache = m.vfs().cache();
  const InodeId ino = InodeOf(m, name);
  const uint64_t pages = CeilDiv(fs.FindInode(ino)->size, m.vfs().config().page_size);
  MetaIo io;
  PageCache::EvictedBatch batch;
  for (uint64_t page = 0; page < pages; ++page) {
    io.Reset();
    const FsResult<BlockId> mapping = fs.MapPage(ino, page, &io);
    ASSERT_TRUE(mapping.ok());
    for (uint32_t i = 0; i < io.reads.size(); ++i) {
      cache.Insert(PageKey{io.reads[i].ino, io.reads[i].index}, io.reads[i].block,
                   /*dirty=*/false, nullptr);
    }
    cache.Insert(PageKey{ino, page}, mapping.value, /*dirty=*/false, &batch);
    for (const PageCache::Evicted& victim : batch) {
      if (victim.block != kInvalidBlock) {
        m.flash()->Insert(victim.key, victim.block);
      }
    }
  }
}

// Every key a prewarm of the two files can insert.
std::vector<PageKey> CandidateKeys(Machine& m) {
  std::vector<PageKey> keys;
  for (const char* name : {"dense", "holes"}) {
    const Inode& inode = *m.fs().FindInode(InodeOf(m, name));
    for (uint64_t page = 0; page < kDensePages; ++page) {
      keys.push_back(PageKey{inode.ino, page});
    }
    keys.push_back(PageKey{kMetaInode, inode.itable_block});
    for (const BlockId block : inode.indirect_blocks) {
      keys.push_back(PageKey{kMetaInode, block});
    }
    for (const BlockId block : inode.extent_meta_blocks) {
      keys.push_back(PageKey{kMetaInode, block});
    }
  }
  return keys;
}

void ExpectTwinsAgree(Machine& vfs_side, Machine& spec_side) {
  const PageCache& a = vfs_side.vfs().cache();
  const PageCache& b = spec_side.vfs().cache();
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.ghost_count(), b.ghost_count());
  EXPECT_EQ(a.arc_target_t1(), b.arc_target_t1());
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_EQ(vfs_side.flash()->stats(), spec_side.flash()->stats());
  EXPECT_EQ(vfs_side.flash()->size(), spec_side.flash()->size());
  for (const PageKey& key : CandidateKeys(vfs_side)) {
    ASSERT_EQ(a.Contains(key), b.Contains(key)) << key.ino << ":" << key.index;
    ASSERT_EQ(vfs_side.flash()->Contains(key), spec_side.flash()->Contains(key))
        << key.ino << ":" << key.index;
  }
  EXPECT_EQ(vfs_side.clock().now(), spec_side.clock().now());
}

class PrewarmDifferential
    : public ::testing::TestWithParam<std::tuple<FsKind, EvictionPolicyKind>> {};

TEST_P(PrewarmDifferential, MatchesPerPageSpecWithFlashTier) {
  const auto [fs, eviction] = GetParam();
  std::unique_ptr<Machine> vfs_side = SmallMachine(fs, eviction);
  std::unique_ptr<Machine> spec_side = SmallMachine(fs, eviction);
  ASSERT_EQ(vfs_side->vfs().cache().capacity(), 1024u);
  MakeFiles(*vfs_side);
  MakeFiles(*spec_side);

  for (const char* name : {"dense", "holes", "dense"}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(vfs_side->vfs().PrewarmFile(std::string("/") + name), FsStatus::kOk);
    SpecPrewarm(*spec_side, name);
    ExpectTwinsAgree(*vfs_side, *spec_side);
  }
  EXPECT_GT(vfs_side->flash()->stats().evictions, 0u);

  PageCache& a = vfs_side->vfs().cache();
  PageCache& b = spec_side->vfs().cache();
  PageCache::EvictedBatch a_batch;
  PageCache::EvictedBatch b_batch;
  for (uint64_t i = 0; i < 3 * a.capacity(); ++i) {
    a.Insert(PageKey{1000000, i}, i, /*dirty=*/false, &a_batch);
    b.Insert(PageKey{1000000, i}, i, /*dirty=*/false, &b_batch);
    ASSERT_EQ(a_batch.size(), b_batch.size()) << "drain " << i;
    for (uint32_t v = 0; v < a_batch.size(); ++v) {
      ASSERT_EQ(a_batch[v].key, b_batch[v].key) << "drain " << i;
    }
  }
}

TEST(PrewarmTest, MissingFileIsNotFound) {
  std::unique_ptr<Machine> m = SmallMachine(FsKind::kExt2, EvictionPolicyKind::kLru);
  EXPECT_EQ(m->vfs().PrewarmFile("/absent"), FsStatus::kNotFound);
  EXPECT_EQ(m->vfs().cache().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FsAndPolicy, PrewarmDifferential,
    ::testing::Combine(::testing::Values(FsKind::kExt2, FsKind::kExt3, FsKind::kXfs),
                       ::testing::Values(EvictionPolicyKind::kLru, EvictionPolicyKind::kClock,
                                         EvictionPolicyKind::kTwoQueue,
                                         EvictionPolicyKind::kArc)),
    [](const auto& info) {
      return std::string(FsKindName(std::get<0>(info.param))) + "_" +
             EvictionPolicyKindName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace fsbench
