// Differential test of Ext2Fs::AllocateFilePages, which allocates a new
// file a run at a time, against a loop of AllocatePage over the same pages
// on a twin file system. Free space near the goal is fragmented first, file
// sizes cross the direct, single-, double- and triple-indirect boundaries,
// and some devices fill mid-file. Both sides must end with the same block
// map, indirect blocks, block count, allocator state and status.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/ext2fs.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

struct Case {
  Bytes block_size;      // 4 KiB: 1,024 pointers per indirect block; 512 B: 128
  uint64_t device_blocks;
  uint64_t fragment_pages;  // pages of two interleaved files, one then deleted
  uint64_t file_pages;
};

FsLayoutParams Layout(Bytes block_size) {
  FsLayoutParams layout;
  layout.block_size = block_size;
  layout.group_blocks = 1000;  // not a multiple of 64
  layout.group_header_blocks = 40;
  layout.inode_table_blocks = 16;
  return layout;
}

// Two files grow in alternating random chunks; deleting one leaves holes of
// 1-8 blocks where the next file's goal lands.
void Fragment(Ext2Fs& fs, uint64_t pages, uint64_t seed) {
  MetaIo io;
  const InodeId keep = fs.Create(kRootInode, "keep", FileType::kRegular, &io).value;
  const InodeId drop = fs.Create(kRootInode, "drop", FileType::kRegular, &io).value;
  Rng rng(seed);
  uint64_t next[2] = {0, 0};
  for (uint64_t done = 0; done < pages;) {
    const int side = static_cast<int>(rng.NextBelow(2));
    for (uint64_t n = 1 + rng.NextBelow(8); n > 0 && done < pages; --n, ++done) {
      io.Reset();
      ASSERT_TRUE(fs.AllocatePage(side == 0 ? keep : drop, next[side]++, &io).ok());
    }
  }
  io.Reset();
  ASSERT_EQ(fs.Unlink(kRootInode, "drop", &io), FsStatus::kOk);
}

void ExpectTwinsMatch(const Case& c, uint64_t seed) {
  const Bytes capacity = c.device_blocks * c.block_size;
  Ext2Fs bulk(capacity, Layout(c.block_size), nullptr);
  Ext2Fs paged(capacity, Layout(c.block_size), nullptr);
  Fragment(bulk, c.fragment_pages, seed);
  Fragment(paged, c.fragment_pages, seed);
  ASSERT_EQ(bulk.allocator().stats(), paged.allocator().stats());

  MetaIo io;
  const InodeId ino = bulk.Create(kRootInode, "f", FileType::kRegular, &io).value;
  ASSERT_EQ(paged.Create(kRootInode, "f", FileType::kRegular, &io).value, ino);
  const FsStatus bulk_status = bulk.AllocateFilePages(ino, c.file_pages, &io);
  FsStatus paged_status = FsStatus::kOk;
  for (uint64_t page = 0; page < c.file_pages && paged_status == FsStatus::kOk; ++page) {
    io.Reset();
    paged_status = paged.AllocatePage(ino, page, &io).status;
  }

  EXPECT_EQ(bulk_status, paged_status);
  const Inode& a = *bulk.FindInode(ino);
  const Inode& b = *paged.FindInode(ino);
  EXPECT_EQ(a.block_map, b.block_map);
  EXPECT_EQ(a.indirect_blocks, b.indirect_blocks);
  EXPECT_EQ(a.allocated_blocks, b.allocated_blocks);
  EXPECT_EQ(bulk.allocator().stats(), paged.allocator().stats());
  EXPECT_EQ(bulk.allocator().used_blocks(), paged.allocator().used_blocks());
  for (BlockId block = 0; block < c.device_blocks; ++block) {
    ASSERT_EQ(bulk.allocator().IsAllocated(block), paged.allocator().IsAllocated(block))
        << "block " << block;
  }
  std::string error;
  EXPECT_TRUE(bulk.CheckConsistency(&error)) << error;
}

class FilePagesDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilePagesDifferential, RunAllocationMatchesPageLoop) {
  const uint64_t seed = GetParam();
  // Boundaries at 4 KiB: direct 12, double-indirect 1,036, next leaf 2,060.
  for (const uint64_t pages : {0, 1, 11, 12, 13, 1035, 1036, 1037, 2059, 2060, 2061, 3500}) {
    SCOPED_TRACE(testing::Message() << "4 KiB blocks, " << pages << " pages");
    ExpectTwinsMatch(Case{4 * kKiB, 8000, 600, pages}, seed);
  }
  // At 512 B the triple-indirect region starts at page 16,524.
  for (const uint64_t pages : {140, 141, 268, 16523, 16524, 16800}) {
    SCOPED_TRACE(testing::Message() << "512 B blocks, " << pages << " pages");
    ExpectTwinsMatch(Case{512, 20000, 800, pages}, seed);
  }
}

TEST_P(FilePagesDifferential, DeviceFillsMidFile) {
  const uint64_t seed = GetParam();
  // 5,000 pages do not fit in 3,000 blocks: the file fails in its
  // double-indirect part.
  ExpectTwinsMatch(Case{4 * kKiB, 3000, 400, 5000}, seed);
  // Sweep the free space across the single-indirect block and across the
  // double-indirect root and first leaf, so the device fills while a chain
  // is allocated as well as on data pages.
  for (uint64_t device_blocks = 50; device_blocks < 58; ++device_blocks) {
    SCOPED_TRACE(testing::Message() << device_blocks << " device blocks");
    ExpectTwinsMatch(Case{4 * kKiB, device_blocks, 0, 20}, seed);
  }
  for (uint64_t device_blocks = 1105; device_blocks < 1130; ++device_blocks) {
    SCOPED_TRACE(testing::Message() << device_blocks << " device blocks");
    ExpectTwinsMatch(Case{4 * kKiB, device_blocks, 0, 1100}, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilePagesDifferential, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fsbench
