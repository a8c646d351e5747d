#include "src/sim/block_allocator.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fsbench {
namespace {

// Calls fn(word, mask) for every bitmap word overlapping bits [first, first + count).
template <typename Fn>
void ForEachWordMask(uint64_t first, uint64_t count, Fn fn) {
  while (count > 0) {
    const uint64_t bit = first % 64;
    const uint64_t take = std::min<uint64_t>(count, 64 - bit);
    const uint64_t mask = (take == 64 ? ~0ULL : (1ULL << take) - 1) << bit;
    fn(first / 64, mask);
    first += take;
    count -= take;
  }
}

}  // namespace

BlockAllocator::BlockAllocator(uint64_t total_blocks, uint64_t group_blocks)
    : total_blocks_(total_blocks), group_blocks_(group_blocks) {
  assert(total_blocks_ > 0);
  assert(group_blocks_ > 0);
  const uint64_t groups = (total_blocks_ + group_blocks_ - 1) / group_blocks_;
  bitmaps_.resize(groups);
  group_free_.assign(groups, group_blocks_);
  // The trailing group may be short.
  const uint64_t tail = total_blocks_ % group_blocks_;
  if (tail != 0) {
    group_free_.back() = tail;
  }
}

uint64_t BlockAllocator::GroupSize(uint64_t group) const {
  return std::min(group_blocks_, total_blocks_ - group * group_blocks_);
}

void BlockAllocator::BuildBitmap(uint64_t group) {
  std::vector<uint64_t>& words = bitmaps_[group];
  words.assign((GroupSize(group) + 63) / 64, 0);
  ForEachWordMask(0, Prefix(group), [&](uint64_t w, uint64_t mask) { words[w] |= mask; });
}

bool BlockAllocator::TestBit(BlockId block) const {
  const uint64_t group = GroupOf(block);
  const uint64_t bit = block - group * group_blocks_;
  if (!HasBitmap(group)) {
    return bit < Prefix(group);
  }
  return (bitmaps_[group][bit / 64] >> (bit % 64)) & 1;
}

void BlockAllocator::MarkRange(BlockId start, uint64_t count, bool used) {
  while (count > 0) {
    const uint64_t group = GroupOf(start);
    const BlockId group_start = group * group_blocks_;
    const uint64_t n = std::min(count, group_start + GroupSize(group) - start);
    // Appending at the prefix only extends it, through the free count below.
    const bool append = used && !HasBitmap(group) && start == group_start + Prefix(group);
    if (!append) {
      if (!HasBitmap(group)) {
        BuildBitmap(group);
      }
      std::vector<uint64_t>& words = bitmaps_[group];
      ForEachWordMask(start - group_start, n, [&](uint64_t w, uint64_t mask) {
        assert((words[w] & mask) == (used ? 0 : mask));
        words[w] ^= mask;
      });
    }
    if (used) {
      group_free_[group] -= n;
      used_ += n;
    } else {
      group_free_[group] += n;
      used_ -= n;
    }
    start += n;
    count -= n;
  }
}

BlockId BlockAllocator::Find(BlockId from, BlockId to, bool used) const {
  if (from >= to) {
    return to;
  }
  const uint64_t group = GroupOf(from);
  const BlockId group_start = group * group_blocks_;
  assert(to <= group_start + GroupSize(group));
  if (!HasBitmap(group)) {
    const BlockId prefix_end = group_start + Prefix(group);
    if (used) {
      return from < prefix_end ? from : to;
    }
    return std::min(std::max(from, prefix_end), to);
  }
  // A word at a time; bits past the group's end are never set, so they read
  // as free, and the hit is cut at `to`.
  const std::vector<uint64_t>& words = bitmaps_[group];
  for (uint64_t bit = from - group_start; group_start + bit < to; bit = (bit / 64 + 1) * 64) {
    const uint64_t word = used ? words[bit / 64] : ~words[bit / 64];
    const uint64_t hits = word & (~0ULL << (bit % 64));
    if (hits != 0) {
      return std::min<BlockId>(
          group_start + bit / 64 * 64 + static_cast<uint64_t>(std::countr_zero(hits)), to);
    }
  }
  return to;
}

BlockId BlockAllocator::FindFree(BlockId from, BlockId to) const {
  const BlockId b = Find(from, to, /*used=*/false);
  return b < to ? b : kInvalidBlock;
}

Extent BlockAllocator::FindRun(BlockId from, BlockId to, uint64_t min_count,
                               uint64_t max_count) const {
  BlockId b = from;
  while (b < to) {
    const BlockId start = FindFree(b, to);
    if (start == kInvalidBlock) {
      break;
    }
    const BlockId end = Find(start, max_count < to - start ? start + max_count : to, /*used=*/true);
    if (end - start >= min_count) {
      return Extent{start, end - start};
    }
    b = end + 1;
  }
  return Extent{kInvalidBlock, 0};
}

std::optional<BlockId> BlockAllocator::AllocateBlock(BlockId goal) {
  if (used_ == total_blocks_) {
    return std::nullopt;
  }
  goal = std::min<BlockId>(goal, total_blocks_ - 1);
  if (!TestBit(goal)) {
    MarkRange(goal, 1, /*used=*/true);
    ++stats_.allocations;
    ++stats_.goal_hits;
    return goal;
  }
  // Forward scan within the goal group, then wrap within the group.
  const uint64_t group = GroupOf(goal);
  const BlockId group_start = group * group_blocks_;
  const BlockId group_end = group_start + GroupSize(group);
  if (group_free_[group] > 0) {
    BlockId b = FindFree(goal + 1, group_end);
    if (b == kInvalidBlock) {
      b = FindFree(group_start, goal);
    }
    if (b != kInvalidBlock) {
      MarkRange(b, 1, /*used=*/true);
      ++stats_.allocations;
      return b;
    }
  }
  // Spill to the nearest non-full group (alternating out from the goal).
  ++stats_.group_spills;
  const uint64_t groups = group_free_.size();
  for (uint64_t d = 1; d < groups; ++d) {
    for (const int64_t dir : {1, -1}) {
      const int64_t g = static_cast<int64_t>(group) + dir * static_cast<int64_t>(d);
      if (g < 0 || g >= static_cast<int64_t>(groups) || group_free_[g] == 0) {
        continue;
      }
      const BlockId s = static_cast<BlockId>(g) * group_blocks_;
      const BlockId b = FindFree(s, s + GroupSize(g));
      assert(b != kInvalidBlock);
      MarkRange(b, 1, /*used=*/true);
      ++stats_.allocations;
      return b;
    }
  }
  return std::nullopt;
}

std::optional<Extent> BlockAllocator::AllocateExtent(BlockId goal, uint64_t min_count,
                                                     uint64_t max_count) {
  assert(min_count > 0 && min_count <= max_count);
  if (free_blocks() < min_count) {
    return std::nullopt;
  }
  goal = std::min<BlockId>(goal, total_blocks_ - 1);
  const uint64_t group = GroupOf(goal);
  const BlockId group_start = group * group_blocks_;
  const BlockId group_end = group_start + GroupSize(group);

  Extent run = FindRun(goal, group_end, min_count, max_count);
  if (run.count == 0) {
    run = FindRun(group_start, group_end, min_count, max_count);
  }
  if (run.count == 0) {
    // Alternating group scan outward from the goal group.
    ++stats_.group_spills;
    const uint64_t groups = group_free_.size();
    for (uint64_t d = 1; d < groups && run.count == 0; ++d) {
      for (const int64_t dir : {1, -1}) {
        const int64_t g = static_cast<int64_t>(group) + dir * static_cast<int64_t>(d);
        if (g < 0 || g >= static_cast<int64_t>(groups) || group_free_[g] < min_count) {
          continue;
        }
        const BlockId s = static_cast<BlockId>(g) * group_blocks_;
        run = FindRun(s, s + GroupSize(g), min_count, max_count);
        if (run.count != 0) {
          break;
        }
      }
    }
  }
  if (run.count == 0) {
    return std::nullopt;
  }
  MarkRange(run.start, run.count, /*used=*/true);
  stats_.allocations += run.count;
  if (run.start == goal) {
    ++stats_.goal_hits;
  }
  return run;
}

std::vector<Extent> BlockAllocator::AllocateBlocks(BlockId goal, uint64_t count) {
  std::vector<Extent> extents;
  if (free_blocks() < count) {
    return extents;
  }
  uint64_t remaining = count;
  BlockId cursor = goal;
  while (remaining > 0) {
    std::optional<Extent> run = AllocateExtent(cursor, 1, remaining);
    if (!run.has_value()) {
      // Should not happen given the up-front free-space check.
      for (const Extent& e : extents) {
        Free(e);
      }
      return {};
    }
    extents.push_back(*run);
    remaining -= run->count;
    cursor = run->start + run->count;
  }
  return extents;
}

Extent BlockAllocator::AllocateRunAt(BlockId goal, uint64_t max_count) {
  Extent run{goal, 0};
  // A group at a time: the run may continue into the next group.
  while (run.count < max_count && goal + run.count < total_blocks_) {
    const BlockId from = goal + run.count;
    const uint64_t group = GroupOf(from);
    const BlockId group_end = group * group_blocks_ + GroupSize(group);
    const uint64_t want = max_count - run.count;
    const BlockId to = want < group_end - from ? from + want : group_end;
    const BlockId used = Find(from, to, /*used=*/true);
    run.count += used - from;
    if (used < to) {
      break;
    }
  }
  MarkRange(run.start, run.count, /*used=*/true);
  stats_.allocations += run.count;
  stats_.goal_hits += run.count;
  return run;
}

void BlockAllocator::ReserveRange(const Extent& extent) {
  MarkRange(extent.start, extent.count, /*used=*/true);
}

void BlockAllocator::Free(const Extent& extent) {
  MarkRange(extent.start, extent.count, /*used=*/false);
  stats_.frees += extent.count;
}

bool BlockAllocator::IsAllocated(BlockId block) const { return TestBit(block); }

bool BlockAllocator::CheckInvariants() const {
  // A group without a bitmap is its free count by construction; only built
  // bitmaps are counted, a word at a time.
  uint64_t used = 0;
  for (uint64_t g = 0; g < group_free_.size(); ++g) {
    const uint64_t size = GroupSize(g);
    if (group_free_[g] > size) {
      return false;
    }
    if (HasBitmap(g)) {
      uint64_t group_used = 0;
      for (const uint64_t word : bitmaps_[g]) {
        group_used += static_cast<uint64_t>(std::popcount(word));
      }
      if (group_used + group_free_[g] != size) {
        return false;
      }
    }
    used += size - group_free_[g];
  }
  return used == used_;
}

}  // namespace fsbench
