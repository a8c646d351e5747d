// Ext2-like file system: block-mapped inodes (12 direct pointers, then
// single/double/triple indirect blocks), goal-directed block allocation
// inside the parent's block group, linear directory scans, no journal,
// conservative readahead.
#ifndef SRC_SIM_EXT2FS_H_
#define SRC_SIM_EXT2FS_H_

#include <string>
#include <vector>

#include "src/sim/filesystem.h"

namespace fsbench {

class Ext2Fs : public FileSystem {
 public:
  Ext2Fs(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock);

  const char* name() const override { return "ext2"; }
  FsKind kind() const override { return FsKind::kExt2; }

  ReadaheadConfig readahead_config() const override {
    // Modest read-around cluster; Linux-style ramping window on sequential.
    return ReadaheadConfig{ReadaheadKind::kAdaptive, /*fixed_pages=*/8, /*min_window=*/4,
                           /*max_window=*/32, /*random_cluster=*/2};
  }

  // errors=continue: with no journal there is no atomicity to protect, so a
  // lost metadata write is counted and the file system soldiers on.
  bool RemountRoOnWriteError() const override { return false; }

  // Indirect-block slot numbering for `page`, appended to `slots`. Slot
  // indices address Inode::indirect_blocks; exposed for tests.
  void IndirectSlotsFor(uint64_t page, std::vector<uint64_t>* slots) const;

  // One indirect-chain run at a time: the 12 direct pages, then the pages
  // under each indirect leaf. Each run ensures its chain once; its data
  // blocks come from AllocateBlock for the first page and after a goal
  // miss, and from BlockAllocator::AllocateRunAt in between.
  FsStatus AllocateFilePages(InodeId ino, uint64_t pages, MetaIo* io) override;

  // The same runs for mapping: a mapped run ends at its chain's last page
  // or before the first hole, and a hole run (no meta reads) before the
  // next mapped page.
  FsResult<uint64_t> MapPageRun(InodeId ino, uint64_t first_page, std::span<BlockId> blocks,
                                MetaIo* io) override;

  // Deepest possible indirect chain: single, double root+leaf, triple
  // root+mid+leaf.
  static constexpr uint32_t kMaxIndirectDepth = 3;

  // Allocation-free variant for the hot mapping path: fills `slots` (at
  // least kMaxIndirectDepth entries) and returns the chain depth.
  uint32_t IndirectSlotsInto(uint64_t page, uint64_t* slots) const;

 protected:
  // `final` so the directory-scan override below (and anything else in this
  // translation-unit family) can call it without virtual dispatch.
  FsResult<BlockId> MapPageFor(const Inode& inode, uint64_t page_index, MetaIo* io) final;
  // `final`: AllocateFilePages replays this policy a run at a time.
  FsResult<BlockId> AllocatePageFor(Inode& inode, uint64_t page_index, MetaIo* io) final;
  // Same linear-scan cost model as the base implementation, but with the
  // per-block MapPageFor call devirtualized — this runs once per path
  // component, the hottest loop in the simulator.
  void ChargeDirLookup(const Inode& dir_inode, const Directory& dir, std::string_view name,
                       std::optional<uint64_t> slot, MetaIo* io) override;
  void FreeAllBlocks(Inode& inode, MetaIo* io) override;
  void FreePagesFrom(Inode& inode, uint64_t first_page, MetaIo* io) override;
  void AppendOwnedBlocks(const Inode& inode, std::vector<BlockId>* blocks) const override;

  // Allocation goal for the next data block of `inode` at `page`.
  BlockId DataGoal(const Inode& inode, uint64_t page) const;

  // Ensures the indirect chain for `page` exists; charges meta writes.
  FsStatus EnsureIndirectChain(Inode& inode, uint64_t page, MetaIo* io);

  // One past the last page whose indirect chain is that of `page`: the 12
  // direct pages form one run, then each indirect leaf's pointers_per_block.
  uint64_t ChainRunEnd(uint64_t page) const;

  uint64_t pointers_per_block() const { return params_.block_size / 4; }
  uint64_t direct_pages() const { return 12; }
};

}  // namespace fsbench

#endif  // SRC_SIM_EXT2FS_H_
