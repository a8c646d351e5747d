// Differential tests of Ext2Fs's run-at-a-time set-up calls against their
// per-page forms.
//
// AllocateFilePages allocates a new file a run at a time; a loop of
// AllocatePage over the same pages runs on a twin file system. Free space
// near the goal is fragmented first, file sizes cross the direct, single-,
// double- and triple-indirect boundaries, and some devices fill mid-file.
// Both sides must end with the same block map, indirect blocks, block
// count, allocator state and status.
//
// MapPageRun maps a run of pages sharing one meta-read set; every page of
// each run must map, through MapPage, to the run's block for it with
// exactly the run's meta reads, on dense files across the same boundaries
// and on files with holes.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/sim/ext2fs.h"
#include "src/sim/xfsfs.h"
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

bool SameReads(const MetaIo& a, const MetaIo& b) {
  if (a.reads.size() != b.reads.size()) {
    return false;
  }
  for (uint32_t i = 0; i < a.reads.size(); ++i) {
    if (a.reads[i].ino != b.reads[i].ino || a.reads[i].index != b.reads[i].index ||
        a.reads[i].block != b.reads[i].block) {
      return false;
    }
  }
  return true;
}

// Walks pages [0, pages) of `ino` with MapPageRun, capping each run at
// `max_run` pages, and checks every page against MapPage. Returns the
// number of runs.
uint64_t ExpectRunsMatchMapPage(FileSystem& fs, InodeId ino, uint64_t pages, uint64_t max_run) {
  MetaIo run_io;
  MetaIo page_io;
  std::vector<BlockId> blocks(max_run);
  uint64_t runs = 0;
  for (uint64_t page = 0, length = 0; page < pages; page += length, ++runs) {
    run_io.Reset();
    const uint64_t max_pages = std::min(pages - page, max_run);
    const FsResult<uint64_t> run =
        fs.MapPageRun(ino, page, std::span<BlockId>(blocks.data(), max_pages), &run_io);
    EXPECT_TRUE(run.ok());
    EXPECT_TRUE(run_io.writes.empty());
    length = run.value;
    if (length == 0 || length > max_pages) {
      ADD_FAILURE() << "run at page " << page << " has " << length << " pages";
      return runs;
    }
    for (uint64_t i = 0; i < length; ++i) {
      page_io.Reset();
      const FsResult<BlockId> mapping = fs.MapPage(ino, page + i, &page_io);
      EXPECT_TRUE(mapping.ok()) << "page " << page + i;
      EXPECT_EQ(blocks[i], mapping.value) << "page " << page + i;
      EXPECT_TRUE(SameReads(run_io, page_io)) << "page " << page + i;
    }
  }
  return runs;
}

TEST(MapPageRun, DenseFilesMatchMapPage) {
  // 4 KiB: direct 12, single-indirect leaf to 1,036, double-indirect leaves
  // of 1,024 after that.
  for (const uint64_t pages : {1, 11, 12, 13, 1035, 1036, 1037, 2059, 2060, 2061, 3500}) {
    SCOPED_TRACE(testing::Message() << "4 KiB blocks, " << pages << " pages");
    Ext2Fs fs(8000 * 4 * kKiB, Layout(4 * kKiB), nullptr);
    Fragment(fs, 600, pages);
    MetaIo io;
    const InodeId ino = fs.Create(kRootInode, "f", FileType::kRegular, &io).value;
    ASSERT_EQ(fs.AllocateFilePages(ino, pages, &io), FsStatus::kOk);
    ExpectRunsMatchMapPage(fs, ino, pages, pages);
    ExpectRunsMatchMapPage(fs, ino, pages, 5);
  }
  // 512 B: 128 pointers per block; triple-indirect from page 16,524.
  for (const uint64_t pages : {140, 141, 16523, 16524, 16525, 16800}) {
    SCOPED_TRACE(testing::Message() << "512 B blocks, " << pages << " pages");
    Ext2Fs fs(20000 * 512, Layout(512), nullptr);
    MetaIo io;
    const InodeId ino = fs.Create(kRootInode, "f", FileType::kRegular, &io).value;
    ASSERT_EQ(fs.AllocateFilePages(ino, pages, &io), FsStatus::kOk);
    ExpectRunsMatchMapPage(fs, ino, pages, pages);
  }
}

TEST(MapPageRun, RunsFollowTheIndirectChains) {
  Ext2Fs fs(8000 * 4 * kKiB, Layout(4 * kKiB), nullptr);
  MetaIo io;
  const InodeId ino = fs.Create(kRootInode, "f", FileType::kRegular, &io).value;
  ASSERT_EQ(fs.AllocateFilePages(ino, 3000, &io), FsStatus::kOk);
  // 12 direct pages, the single-indirect leaf, then double-indirect leaves.
  std::vector<BlockId> blocks(3000);
  uint64_t sizes[4] = {};
  uint64_t page = 0;
  for (uint64_t& size : sizes) {
    io.Reset();
    const FsResult<uint64_t> run =
        fs.MapPageRun(ino, page, std::span<BlockId>(blocks.data(), 3000 - page), &io);
    ASSERT_TRUE(run.ok());
    size = run.value;
    page += size;
  }
  EXPECT_EQ(sizes[0], 12u);
  EXPECT_EQ(sizes[1], 1024u);
  EXPECT_EQ(sizes[2], 1024u);
  EXPECT_EQ(sizes[3], 3000u - 2060u);
  EXPECT_EQ(io.reads.size(), 3u);  // inode table, double root, leaf
  EXPECT_EQ(ExpectRunsMatchMapPage(fs, ino, 3000, 3000), 4u);
}

TEST(MapPageRun, FilesWithHolesMatchMapPage) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Bytes block_size : {4 * kKiB, Bytes{512}}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", block size " << block_size);
      Ext2Fs fs(20000 * block_size, Layout(block_size), nullptr);
      MetaIo io;
      const InodeId ino = fs.Create(kRootInode, "f", FileType::kRegular, &io).value;
      // Mapped stretches of 1-40 pages between holes of 1-300 pages, with
      // stretches placed on the chain boundaries too.
      const uint64_t pages = block_size == 512 ? 17000 : 3000;
      Rng rng(seed);
      std::vector<uint64_t> starts = {0, 11, 12, 140, 1035, 1036, 2059, 2060, 16523, 16524};
      for (uint64_t page = 0; page < pages; page += 1 + rng.NextBelow(300)) {
        starts.push_back(page);
      }
      for (const uint64_t start : starts) {
        for (uint64_t page = start, n = 1 + rng.NextBelow(40); page < pages && n > 0;
             ++page, --n) {
          io.Reset();
          ASSERT_TRUE(fs.AllocatePage(ino, page, &io).ok());
        }
      }
      // The size runs past the last mapped page: a trailing hole.
      io.Reset();
      ASSERT_EQ(fs.SetSize(ino, (pages + 500) * block_size, &io), FsStatus::kOk);
      ExpectRunsMatchMapPage(fs, ino, pages + 500, pages + 500);
      ExpectRunsMatchMapPage(fs, ino, pages + 500, 7);
    }
  }
}

TEST(MapPageRun, DefaultMapsOnePage) {
  XfsFs fs(1 * kGiB, FsLayoutParams{}, nullptr);
  MetaIo io;
  const InodeId ino = fs.Create(kRootInode, "f", FileType::kRegular, &io).value;
  ASSERT_EQ(fs.AllocateFilePages(ino, 100, &io), FsStatus::kOk);
  EXPECT_EQ(ExpectRunsMatchMapPage(fs, ino, 100, 100), 100u);
  BlockId block = 0;
  EXPECT_EQ(fs.MapPageRun(ino + 100, 0, std::span<BlockId>(&block, 1), &io).status,
            FsStatus::kNotFound);
}

}  // namespace
}  // namespace fsbench
