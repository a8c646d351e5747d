#include "src/sim/ext2fs.h"

#include <algorithm>
#include <cassert>

namespace fsbench {

Ext2Fs::Ext2Fs(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock)
    : FileSystem(device_capacity, params, clock) {}

uint32_t Ext2Fs::IndirectSlotsInto(uint64_t page, uint64_t* slots) const {
  const uint64_t ptrs = pointers_per_block();
  const uint64_t direct = direct_pages();
  if (page < direct) {
    return 0;
  }
  page -= direct;
  if (page < ptrs) {
    // Single indirect root.
    slots[0] = 0;
    return 1;
  }
  page -= ptrs;
  if (page < ptrs * ptrs) {
    // Double indirect: root at slot 1, leaves at 2..(1+ptrs).
    slots[0] = 1;
    slots[1] = 2 + page / ptrs;
    return 2;
  }
  page -= ptrs * ptrs;
  // Triple indirect: root, mid, leaf. Slot layout reserves the double-leaf
  // range [2, 2+ptrs) first.
  const uint64_t triple_base = 2 + ptrs;
  const uint64_t mid = page / (ptrs * ptrs);
  const uint64_t leaf = (page % (ptrs * ptrs)) / ptrs;
  slots[0] = triple_base;                                 // triple root
  slots[1] = triple_base + 1 + mid;                       // mid node
  slots[2] = triple_base + 1 + ptrs + mid * ptrs + leaf;  // leaf node
  return 3;
}

void Ext2Fs::IndirectSlotsFor(uint64_t page, std::vector<uint64_t>* slots) const {
  uint64_t chain[kMaxIndirectDepth];
  const uint32_t depth = IndirectSlotsInto(page, chain);
  slots->insert(slots->end(), chain, chain + depth);
}

void Ext2Fs::ChargeDirLookup(const Inode& dir_inode, const Directory& dir, std::string_view name,
                             std::optional<uint64_t> slot, MetaIo* io) {
  (void)name;
  // Same shared cost model as the base implementation, but the mapper is
  // the final Ext2Fs::MapPageFor, so it resolves statically and inlines
  // into the scan — this runs once per path component.
  ChargeLinearDirScan(dir_inode, dir, slot, io,
                      [this](const Inode& inode, uint64_t page, MetaIo* out) {
                        return Ext2Fs::MapPageFor(inode, page, out);
                      });
}

FsResult<BlockId> Ext2Fs::MapPageFor(const Inode& inode, uint64_t page_index, MetaIo* io) {
  if (page_index >= inode.block_map.size() || inode.block_map[page_index] == kInvalidBlock) {
    return FsResult<BlockId>::Ok(kInvalidBlock);  // hole
  }
  io->AddMetaRead(inode.itable_block);
  uint64_t slots[kMaxIndirectDepth];
  const uint32_t depth = IndirectSlotsInto(page_index, slots);
  for (uint32_t i = 0; i < depth; ++i) {
    assert(slots[i] < inode.indirect_blocks.size());
    io->AddMetaRead(inode.indirect_blocks[slots[i]]);
  }
  return FsResult<BlockId>::Ok(inode.block_map[page_index]);
}

uint64_t Ext2Fs::ChainRunEnd(uint64_t page) const {
  const uint64_t direct = direct_pages();
  const uint64_t ptrs = pointers_per_block();
  return page < direct ? direct : direct + ((page - direct) / ptrs + 1) * ptrs;
}

FsResult<uint64_t> Ext2Fs::MapPageRun(InodeId ino, uint64_t first_page, std::span<BlockId> blocks,
                                      MetaIo* io) {
  assert(!blocks.empty());
  const Inode* inode = FindInode(ino);
  if (inode == nullptr) {
    return FsResult<uint64_t>::Error(FsStatus::kNotFound);
  }
  const std::vector<BlockId>& map = inode->block_map;
  const uint64_t end = std::min(first_page + blocks.size(), ChainRunEnd(first_page));
  const auto mapped = [&map](uint64_t page) {
    return page < map.size() && map[page] != kInvalidBlock;
  };
  const bool hole = !mapped(first_page);
  if (!hole) {
    MapPageFor(*inode, first_page, io);  // the run's shared meta reads
  }
  uint64_t page = first_page;
  do {
    blocks[page - first_page] = hole ? kInvalidBlock : map[page];
    ++page;
  } while (page < end && mapped(page) != hole);
  return FsResult<uint64_t>::Ok(page - first_page);
}

BlockId Ext2Fs::DataGoal(const Inode& inode, uint64_t page) const {
  if (page > 0 && page - 1 < inode.block_map.size() &&
      inode.block_map[page - 1] != kInvalidBlock) {
    return inode.block_map[page - 1] + 1;
  }
  // Last mapped block anywhere, else the inode's group.
  for (auto it = inode.block_map.rbegin(); it != inode.block_map.rend(); ++it) {
    if (*it != kInvalidBlock) {
      return *it + 1;
    }
  }
  return GroupDataStart(inode.group);
}

FsStatus Ext2Fs::EnsureIndirectChain(Inode& inode, uint64_t page, MetaIo* io) {
  uint64_t chain[kMaxIndirectDepth];
  const uint32_t depth = IndirectSlotsInto(page, chain);
  for (uint32_t i = 0; i < depth; ++i) {
    const uint64_t slot = chain[i];
    if (slot >= inode.indirect_blocks.size()) {
      inode.indirect_blocks.resize(slot + 1, kInvalidBlock);
    }
    if (inode.indirect_blocks[slot] == kInvalidBlock) {
      const std::optional<BlockId> block = alloc_.AllocateBlock(DataGoal(inode, page));
      if (!block.has_value()) {
        return FsStatus::kNoSpace;
      }
      inode.indirect_blocks[slot] = *block;
      ++inode.allocated_blocks;
      io->AddMetaWrite(*block);
      io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(*block)));
    } else {
      // Updating a deeper level dirties the parent node too.
      io->AddMetaWrite(inode.indirect_blocks[slot]);
    }
  }
  return FsStatus::kOk;
}

FsResult<BlockId> Ext2Fs::AllocatePageFor(Inode& inode, uint64_t page_index, MetaIo* io) {
  if (page_index < inode.block_map.size() && inode.block_map[page_index] != kInvalidBlock) {
    return FsResult<BlockId>::Ok(inode.block_map[page_index]);
  }
  const FsStatus chain = EnsureIndirectChain(inode, page_index, io);
  if (chain != FsStatus::kOk) {
    return FsResult<BlockId>::Error(chain);
  }
  const std::optional<BlockId> block = alloc_.AllocateBlock(DataGoal(inode, page_index));
  if (!block.has_value()) {
    return FsResult<BlockId>::Error(FsStatus::kNoSpace);
  }
  if (page_index >= inode.block_map.size()) {
    inode.block_map.resize(page_index + 1, kInvalidBlock);
  }
  inode.block_map[page_index] = *block;
  ++inode.allocated_blocks;
  io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(*block)));
  io->AddMetaWrite(inode.itable_block);
  return FsResult<BlockId>::Ok(*block);
}

FsStatus Ext2Fs::AllocateFilePages(InodeId ino, uint64_t pages, MetaIo* io) {
  Inode* inode = MutableInode(ino);
  if (inode == nullptr) {
    return FsStatus::kNotFound;
  }
  std::vector<BlockId>& map = inode->block_map;
  assert(map.empty());
  map.reserve(pages);
  FsStatus status = FsStatus::kOk;
  uint64_t page = 0;
  while (page < pages && status == FsStatus::kOk) {
    const uint64_t run_end = std::min(pages, ChainRunEnd(page));
    io->Reset();
    status = EnsureIndirectChain(*inode, page, io);
    if (status != FsStatus::kOk) {
      break;
    }
    map.resize(run_end, kInvalidBlock);
    while (page < run_end) {
      const std::optional<BlockId> block = alloc_.AllocateBlock(DataGoal(*inode, page));
      if (!block.has_value()) {
        status = FsStatus::kNoSpace;
        break;
      }
      map[page++] = *block;
      const Extent run = alloc_.AllocateRunAt(*block + 1, run_end - page);
      for (uint64_t i = 0; i < run.count; ++i) {
        map[page++] = run.start + i;
      }
    }
  }
  // A failed page leaves the map ending at the last page allocated.
  map.resize(page);
  inode->allocated_blocks += page;
  return status;
}

void Ext2Fs::FreeAllBlocks(Inode& inode, MetaIo* io) {
  for (BlockId block : inode.block_map) {
    if (block != kInvalidBlock) {
      alloc_.Free(Extent{block, 1});
      io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(block)));
    }
  }
  for (BlockId block : inode.indirect_blocks) {
    if (block != kInvalidBlock) {
      alloc_.Free(Extent{block, 1});
      io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(block)));
      io->invalidations.push_back({kMetaInode, block, block});
    }
  }
  inode.block_map.clear();
  inode.indirect_blocks.clear();
  inode.allocated_blocks = 0;
}

void Ext2Fs::FreePagesFrom(Inode& inode, uint64_t first_page, MetaIo* io) {
  // Frees data blocks past the new end. Indirect blocks are kept (and stay
  // accounted in allocated_blocks) — a simplification relative to real
  // ext2, which prunes empty indirect blocks.
  for (uint64_t page = first_page; page < inode.block_map.size(); ++page) {
    const BlockId block = inode.block_map[page];
    if (block != kInvalidBlock) {
      alloc_.Free(Extent{block, 1});
      --inode.allocated_blocks;
      io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(block)));
      io->invalidations.push_back({inode.ino, page, block});
    }
  }
  if (first_page < inode.block_map.size()) {
    inode.block_map.resize(first_page);
  }
}

void Ext2Fs::AppendOwnedBlocks(const Inode& inode, std::vector<BlockId>* blocks) const {
  for (BlockId block : inode.block_map) {
    if (block != kInvalidBlock) {
      blocks->push_back(block);
    }
  }
  for (BlockId block : inode.indirect_blocks) {
    if (block != kInvalidBlock) {
      blocks->push_back(block);
    }
  }
}

}  // namespace fsbench
