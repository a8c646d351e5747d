#include "src/sim/inode_table.h"

#include <utility>

namespace fsbench {

Inode* InodeTable::Insert(Inode&& inode) {
  assert(inode.ino != kInvalidInode);
  // Keep the load factor at or under 0.7 so probe runs stay short.
  if ((size_ + 1) * 10 > index_.size() * 7) {
    index_.Resize(index_.size() * 2, IndexSlot::Hash);
  }
  const size_t slot = Probe(inode.ino);
  assert(index_[slot].empty());

  uint32_t pos;
  if (!free_.empty()) {
    pos = free_.back();
    free_.pop_back();
    slab_[pos] = std::move(inode);
  } else {
    pos = static_cast<uint32_t>(slab_.size());
    slab_.push_back(std::move(inode));
  }
  index_[slot] = IndexSlot{slab_[pos].ino, pos};
  ++size_;
  return &slab_[pos];
}

void InodeTable::Erase(InodeId ino) {
  const size_t slot = Probe(ino);
  if (index_[slot].ino != ino) {
    return;
  }
  slab_[index_[slot].pos] = Inode{};  // release the inode's own storage now
  free_.push_back(index_[slot].pos);
  --size_;
  index_.Erase(slot, IndexSlot::Hash);
}

}  // namespace fsbench
