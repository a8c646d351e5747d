#include "src/sim/xfsfs.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace fsbench {

XfsFs::XfsFs(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock,
             uint64_t log_blocks)
    : FileSystem(device_capacity, params, clock) {
  // The same placement ext3 uses; real XFS centres the log in an
  // allocation group, a difference the seek model can ignore at this size.
  ReserveLogRegion(log_blocks);
}

std::optional<size_t> XfsFs::FindExtent(const Inode& inode, uint64_t page) {
  // Extents are sorted by first_page and non-overlapping: binary search for
  // the last extent starting at or before `page`.
  const auto& extents = inode.extents;
  auto it = std::upper_bound(
      extents.begin(), extents.end(), page,
      [](uint64_t p, const FileExtent& e) { return p < e.first_page; });
  if (it == extents.begin()) {
    return std::nullopt;
  }
  --it;
  if (page < it->first_page + it->extent.count) {
    return static_cast<size_t>(it - extents.begin());
  }
  return std::nullopt;
}

FsResult<BlockId> XfsFs::MapPageFor(const Inode& inode, uint64_t page_index, MetaIo* io) {
  const std::optional<size_t> idx = FindExtent(inode, page_index);
  if (!idx.has_value()) {
    return FsResult<BlockId>::Ok(kInvalidBlock);  // hole
  }
  io->AddMetaRead(inode.itable_block);
  if (inode.extents.size() > kInlineExtents && !inode.extent_meta_blocks.empty()) {
    const size_t node = std::min(*idx / kExtentsPerNode, inode.extent_meta_blocks.size() - 1);
    io->AddMetaRead(inode.extent_meta_blocks[node]);
  }
  const FileExtent& e = inode.extents[*idx];
  return FsResult<BlockId>::Ok(e.extent.start + (page_index - e.first_page));
}

FsStatus XfsFs::EnsureExtentNodes(Inode& inode, MetaIo* io) {
  if (inode.extents.size() <= kInlineExtents) {
    return FsStatus::kOk;
  }
  const size_t needed = (inode.extents.size() + kExtentsPerNode - 1) / kExtentsPerNode;
  while (inode.extent_meta_blocks.size() < needed) {
    const std::optional<BlockId> block =
        alloc_.AllocateBlock(GroupDataStart(inode.group));
    if (!block.has_value()) {
      return FsStatus::kNoSpace;
    }
    inode.extent_meta_blocks.push_back(*block);
    ++inode.allocated_blocks;
    io->AddMetaWrite(*block);
    io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(*block)));
  }
  return FsStatus::kOk;
}

FsResult<BlockId> XfsFs::AllocatePageFor(Inode& inode, uint64_t page_index, MetaIo* io) {
  if (const std::optional<size_t> idx = FindExtent(inode, page_index); idx.has_value()) {
    const FileExtent& e = inode.extents[*idx];
    return FsResult<BlockId>::Ok(e.extent.start + (page_index - e.first_page));
  }

  // How many contiguous blocks may we grab without overlapping the next
  // extent's logical range?
  uint64_t max_count = kAllocChunk;
  const auto next = std::upper_bound(
      inode.extents.begin(), inode.extents.end(), page_index,
      [](uint64_t p, const FileExtent& e) { return p < e.first_page; });
  if (next != inode.extents.end()) {
    max_count = std::min<uint64_t>(max_count, next->first_page - page_index);
  }

  // Appending right after an existing extent? Try to grow it in place.
  FileExtent* prev = nullptr;
  if (next != inode.extents.begin()) {
    prev = &*(next - 1);
  }
  const bool appending = prev != nullptr && page_index == prev->first_page + prev->extent.count;
  const BlockId goal = appending ? prev->extent.start + prev->extent.count
                                 : (prev != nullptr ? prev->extent.start + prev->extent.count
                                                    : GroupDataStart(inode.group));

  const std::optional<Extent> grabbed = alloc_.AllocateExtent(goal, 1, max_count);
  if (!grabbed.has_value()) {
    return FsResult<BlockId>::Error(FsStatus::kNoSpace);
  }
  inode.allocated_blocks += grabbed->count;
  io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(grabbed->start)));
  io->AddMetaWrite(inode.itable_block);

  if (appending && grabbed->start == prev->extent.start + prev->extent.count) {
    prev->extent.count += grabbed->count;
  } else {
    inode.extents.insert(next, FileExtent{page_index, *grabbed});
  }
  const FsStatus nodes = EnsureExtentNodes(inode, io);
  if (nodes != FsStatus::kOk) {
    return FsResult<BlockId>::Error(nodes);
  }
  return FsResult<BlockId>::Ok(grabbed->start);
}

void XfsFs::ChargeDirLookup(const Inode& dir_inode, const Directory& dir,
                            std::string_view name, std::optional<uint64_t> slot, MetaIo* io) {
  // Btree directory: a lookup reads the root block plus one leaf — negative
  // lookups included (the hash either finds its bucket or proves absence),
  // which is the structural advantage over ext2's full linear scan.
  const uint64_t epb = params_.dir_entries_per_block;
  const uint64_t total_blocks = dir.slot_count() == 0 ? 0 : CeilDiv(dir.slot_count(), epb);
  if (total_blocks == 0) {
    return;
  }
  auto charge_page = [&](uint64_t page) {
    const FsResult<BlockId> mapping = MapPageFor(dir_inode, page, io);
    if (mapping.ok() && mapping.value != kInvalidBlock) {
      io->reads.push_back({dir_inode.ino, page, mapping.value});
    }
  };
  charge_page(0);  // root
  if (total_blocks == 1) {
    return;
  }
  // std::hash<string_view> is required to agree with std::hash<string> for
  // equal contents, so the modelled leaf choice is unchanged by the
  // string_view migration.
  const uint64_t leaf = slot.has_value()
                            ? *slot / epb
                            : std::hash<std::string_view>{}(name) % total_blocks;
  if (leaf != 0) {
    charge_page(leaf);
  }
  // Very large directories get one interior level.
  if (total_blocks > kExtentsPerNode) {
    charge_page(1 + leaf % (total_blocks / kExtentsPerNode + 1));
  }
}

void XfsFs::FreeAllBlocks(Inode& inode, MetaIo* io) {
  for (const FileExtent& e : inode.extents) {
    alloc_.Free(e.extent);
    io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(e.extent.start)));
  }
  for (BlockId block : inode.extent_meta_blocks) {
    alloc_.Free(Extent{block, 1});
    io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(block)));
    io->invalidations.push_back({kMetaInode, block, block});
  }
  inode.extents.clear();
  inode.extent_meta_blocks.clear();
  inode.allocated_blocks = 0;
}

void XfsFs::FreePagesFrom(Inode& inode, uint64_t first_page, MetaIo* io) {
  while (!inode.extents.empty()) {
    FileExtent& last = inode.extents.back();
    if (last.first_page >= first_page) {
      // Whole extent dies.
      alloc_.Free(last.extent);
      inode.allocated_blocks -= last.extent.count;
      io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(last.extent.start)));
      for (uint64_t p = 0; p < last.extent.count; ++p) {
        io->invalidations.push_back(
            {inode.ino, last.first_page + p, last.extent.start + p});
      }
      inode.extents.pop_back();
      continue;
    }
    if (last.first_page + last.extent.count > first_page) {
      // Split: keep the head, free the tail.
      const uint64_t keep = first_page - last.first_page;
      const Extent tail{last.extent.start + keep, last.extent.count - keep};
      alloc_.Free(tail);
      inode.allocated_blocks -= tail.count;
      io->AddMetaWrite(BlockBitmapBlock(alloc_.GroupOf(tail.start)));
      for (uint64_t p = 0; p < tail.count; ++p) {
        io->invalidations.push_back({inode.ino, first_page + p, tail.start + p});
      }
      last.extent.count = keep;
    }
    break;
  }
}

void XfsFs::AppendOwnedBlocks(const Inode& inode, std::vector<BlockId>* blocks) const {
  for (const FileExtent& e : inode.extents) {
    for (uint64_t i = 0; i < e.extent.count; ++i) {
      blocks->push_back(e.extent.start + i);
    }
  }
  for (BlockId block : inode.extent_meta_blocks) {
    blocks->push_back(block);
  }
}

}  // namespace fsbench
