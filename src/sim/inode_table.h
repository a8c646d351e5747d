// Open-addressing inode index over a stable slab.
//
// Path resolution probes the inode table once per component, so the map from
// InodeId to Inode is one of the hottest structures in the simulator (after
// the page cache, which got the same treatment in the slab-cache rewrite).
// std::unordered_map pays a prime-modulo plus a node chase per find and a
// node allocation per insert; this table instead keeps:
//
//   index_  a FlatIndex (src/sim/flat_index.h: linear probe, MixId hash,
//           backward-shift deletion) mapping InodeId -> slab position,
//   slab_   a std::deque<Inode> (stable addresses across growth) whose freed
//           positions are recycled through a LIFO free list.
//
// Pointers returned by Find()/Insert() stay valid until that inode is
// erased — the same stability guarantee std::unordered_map gave, which the
// file-system code relies on (e.g. holding the parent across AllocateInode).
#ifndef SRC_SIM_INODE_TABLE_H_
#define SRC_SIM_INODE_TABLE_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/flat_index.h"
#include "src/sim/inode.h"
#include "src/sim/types.h"

namespace fsbench {

class InodeTable {
 public:
  InodeTable() : index_(kInitialSlots) {}

  const Inode* Find(InodeId ino) const {
    const IndexSlot& slot = index_[Probe(ino)];
    return slot.ino == ino ? &slab_[slot.pos] : nullptr;
  }
  Inode* Find(InodeId ino) {
    const IndexSlot& slot = index_[Probe(ino)];
    return slot.ino == ino ? &slab_[slot.pos] : nullptr;
  }

  // Inserts a fresh inode (its id must not be present). The returned pointer
  // is stable until Erase.
  Inode* Insert(Inode&& inode);

  // Removes an inode; its slab position is recycled and its storage freed.
  void Erase(InodeId ino);

  size_t size() const { return size_; }

  // Iterates live inodes in unspecified order.
  class const_iterator {
   public:
    const_iterator(const InodeTable* table, size_t pos) : table_(table), pos_(pos) { Settle(); }
    const Inode& operator*() const { return table_->slab_[table_->index_[pos_].pos]; }
    const Inode* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++pos_;
      Settle();
      return *this;
    }
    bool operator==(const const_iterator& other) const { return pos_ == other.pos_; }
    bool operator!=(const const_iterator& other) const { return pos_ != other.pos_; }

   private:
    void Settle() {
      while (pos_ < table_->index_.size() && table_->index_[pos_].empty()) {
        ++pos_;
      }
    }
    const InodeTable* table_;
    size_t pos_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, index_.size()); }

 private:
  static constexpr size_t kInitialSlots = 64;

  // kInvalidInode (0) is never a live id, so it doubles as the empty marker.
  struct IndexSlot {
    InodeId ino = kInvalidInode;
    uint32_t pos = 0;

    bool empty() const { return ino == kInvalidInode; }
    static size_t Hash(const IndexSlot& slot) { return MixId(slot.ino); }
  };

  // Slot holding `ino`, or the first empty slot of its probe run.
  size_t Probe(InodeId ino) const {
    return index_.Probe(MixId(ino), [ino](const IndexSlot& slot) { return slot.ino == ino; });
  }

  std::deque<Inode> slab_;
  std::vector<uint32_t> free_;  // recycled slab positions, LIFO
  FlatIndex<IndexSlot> index_;
  size_t size_ = 0;
};

}  // namespace fsbench

#endif  // SRC_SIM_INODE_TABLE_H_
