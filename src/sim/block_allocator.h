// Bitmap block allocator with block groups.
//
// Models the allocation behaviour that determines on-disk layout quality:
// goal-directed first-fit inside a block group (ext2-style locality), with
// spill-over to other groups when the goal group is full. Contiguous extent
// allocation serves the extent-based file system.
//
// Bitmaps are built on first use, like ext4's BLOCK_UNINIT groups. Until
// then a group is fully described by an allocated prefix: blocks
// [start, start + prefix) are in use and the rest are free, so the prefix
// is the group's size minus its free count. Appending at the prefix only
// extends it; any other change first builds the group's bitmap from it.
// Mkfs headers and a file written front to back on a fresh device therefore
// cost O(1) per group, and fsck costs O(groups whose bitmap exists).
#ifndef SRC_SIM_BLOCK_ALLOCATOR_H_
#define SRC_SIM_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/types.h"

namespace fsbench {

struct BlockAllocatorStats {
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t goal_hits = 0;   // allocated exactly at the requested goal
  uint64_t group_spills = 0;  // had to leave the goal's group

  bool operator==(const BlockAllocatorStats&) const = default;
};

class BlockAllocator {
 public:
  // `total_blocks` device blocks split into groups of `group_blocks`.
  BlockAllocator(uint64_t total_blocks, uint64_t group_blocks);

  // Allocates one block, preferring `goal`, then the goal's group, then
  // other groups. Returns std::nullopt when the device is full.
  std::optional<BlockId> AllocateBlock(BlockId goal);

  // Allocates a contiguous run of between min_count and max_count blocks
  // near `goal`. Prefers the longest run up to max_count it can find in the
  // goal group, then scans other groups; returns std::nullopt if no run of
  // at least min_count exists anywhere.
  std::optional<Extent> AllocateExtent(BlockId goal, uint64_t min_count, uint64_t max_count);

  // Allocates exactly `count` blocks near `goal`, possibly discontiguously.
  // Returns the extents, or an empty vector if space is insufficient
  // (in which case nothing is allocated).
  std::vector<Extent> AllocateBlocks(BlockId goal, uint64_t count);

  // Claims up to `max_count` consecutive free blocks starting exactly at
  // `goal`, stopping at the first allocated block or the device end. Each
  // counts as an allocation and a goal hit: the same blocks and stats as
  // repeated AllocateBlock(previous + 1) while the goal stays free. Returns
  // count 0 when `goal` itself is allocated or past the device.
  Extent AllocateRunAt(BlockId goal, uint64_t max_count);

  // Marks a range allocated at mkfs time (superblock, inode tables, journal).
  // Requires the range to be entirely free.
  void ReserveRange(const Extent& extent);

  void Free(const Extent& extent);

  bool IsAllocated(BlockId block) const;
  uint64_t total_blocks() const { return total_blocks_; }
  uint64_t used_blocks() const { return used_; }
  uint64_t free_blocks() const { return total_blocks_ - used_; }
  uint64_t group_count() const { return group_free_.size(); }
  uint64_t GroupOf(BlockId block) const { return block / group_blocks_; }
  const BlockAllocatorStats& stats() const { return stats_; }

  // Verifies the per-group free counters against the bitmaps (fsck helper).
  bool CheckInvariants() const;

 private:
  uint64_t GroupSize(uint64_t group) const;
  bool HasBitmap(uint64_t group) const { return !bitmaps_[group].empty(); }
  // Allocated prefix of a group without a bitmap.
  uint64_t Prefix(uint64_t group) const { return GroupSize(group) - group_free_[group]; }
  // Builds `group`'s bitmap from its prefix.
  void BuildBitmap(uint64_t group);

  bool TestBit(BlockId block) const;
  // Marks [start, start + count) allocated (`used`) or free; the range may
  // span groups and must be wholly in the other state.
  void MarkRange(BlockId start, uint64_t count, bool used);
  // First block in [from, to) that is allocated (`used`) or free (!`used`),
  // or `to` when there is none. [from, to) must lie within one group, as
  // must FindFree's and FindRun's.
  BlockId Find(BlockId from, BlockId to, bool used) const;
  // First free block in [from, to), or kInvalidBlock.
  BlockId FindFree(BlockId from, BlockId to) const;
  // Longest free run starting at or after `from` within [from, to), capped
  // at max_count. Returns count 0 when none.
  Extent FindRun(BlockId from, BlockId to, uint64_t min_count, uint64_t max_count) const;

  uint64_t total_blocks_;
  uint64_t group_blocks_;
  // Per group, bit i is block group_start + i; empty until first needed.
  std::vector<std::vector<uint64_t>> bitmaps_;
  std::vector<uint64_t> group_free_;
  uint64_t used_ = 0;
  BlockAllocatorStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_BLOCK_ALLOCATOR_H_
