// Flat open-addressing index: the one hash table of the simulator.
//
// The page cache's key table and per-inode index, the directory name index
// and the inode table all map a key to a small slot value through the same
// scheme: a power-of-two array of slots, linear probing from hash & mask,
// and backward-shift deletion (no tombstones, so probe runs never decay).
// FlatIndex<Slot> owns that array and the three operations; everything that
// knows about keys stays with the caller, passed in as a small functor:
//
//   Probe(hash, match)       position whose slot `match` accepts, or the
//                            first empty position of the key's probe run
//   Erase(hole, hash_of, moved)
//                            empties `hole` by backward shift; hash_of(slot)
//                            gives an entry's home, moved(slot, pos) hears of
//                            every entry shifted back (for back-pointers);
//                            returns the final hole
//   Resize(size, hash_of)    rebuilds at `size` positions, re-inserting in
//                            old position order
//
// Insertion is a plain store into the position Probe returned; callers own
// their entry counts and load thresholds. Because re-insertion order and
// probing are fixed, a table's layout is a pure function of its op
// sequence and size.
//
// Slot requirements: a default-constructed Slot is empty, and
// `bool empty() const` tells an empty slot from a live one. FlatId is the
// slot for tables that store a 32-bit id into a caller-owned array.
#ifndef SRC_SIM_FLAT_INDEX_H_
#define SRC_SIM_FLAT_INDEX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fsbench {

// Smallest power of two >= max(n, minimum); `minimum` must be a power of
// two.
inline size_t PowerOfTwoAtLeast(size_t n, size_t minimum) {
  size_t size = minimum;
  while (size < n) {
    size <<= 1;
  }
  return size;
}

// Hash for integer ids (inode numbers). Sequential ids need mixing before
// masking, or consecutive files would form one long probe run.
inline size_t MixId(uint64_t id) {
  uint64_t h = id * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return static_cast<size_t>(h);
}

struct FlatId {
  static constexpr uint32_t kNone = 0xFFFFFFFFu;
  uint32_t id = kNone;

  bool empty() const { return id == kNone; }
};

template <typename Slot>
class FlatIndex {
 public:
  // `size` must be a power of two.
  explicit FlatIndex(size_t size) : slots_(size), mask_(size - 1) {
    assert(size > 0 && (size & mask_) == 0);
  }

  size_t size() const { return slots_.size(); }
  size_t mask() const { return mask_; }
  Slot& operator[](size_t pos) { return slots_[pos]; }
  const Slot& operator[](size_t pos) const { return slots_[pos]; }
  typename std::vector<Slot>::const_iterator begin() const { return slots_.begin(); }
  typename std::vector<Slot>::const_iterator end() const { return slots_.end(); }

  template <typename Match>
  size_t Probe(size_t hash, const Match& match) const {
    size_t pos = hash & mask_;
    while (!slots_[pos].empty() && !match(slots_[pos])) {
      pos = (pos + 1) & mask_;
    }
    return pos;
  }

  template <typename HashOf, typename Moved>
  size_t Erase(size_t hole, const HashOf& hash_of, const Moved& moved) {
    // Walk the probe run after the hole. An entry stays put only if its
    // home lies cyclically in (hole, pos]; otherwise probing pushed it past
    // the hole, so it moves back into it and its old position becomes the
    // hole. Every remaining key stays reachable from its home.
    size_t pos = hole;
    for (;;) {
      pos = (pos + 1) & mask_;
      if (slots_[pos].empty()) {
        break;
      }
      const size_t home = hash_of(slots_[pos]) & mask_;
      if (((pos - home) & mask_) < ((pos - hole) & mask_)) {
        continue;
      }
      slots_[hole] = slots_[pos];
      moved(slots_[hole], hole);
      hole = pos;
    }
    slots_[hole] = Slot{};
    return hole;
  }
  template <typename HashOf>
  size_t Erase(size_t hole, const HashOf& hash_of) {
    return Erase(hole, hash_of, [](const Slot&, size_t) {});
  }

  template <typename HashOf>
  void Resize(size_t size, const HashOf& hash_of) {
    assert(size > 0 && (size & (size - 1)) == 0);
    std::vector<Slot> old(size);
    old.swap(slots_);
    mask_ = size - 1;
    for (const Slot& slot : old) {
      if (!slot.empty()) {
        slots_[Probe(hash_of(slot), [](const Slot&) { return false; })] = slot;
      }
    }
  }

  // Empties every slot; the size is kept.
  void Clear() { slots_.assign(slots_.size(), Slot{}); }

 private:
  std::vector<Slot> slots_;
  size_t mask_;
};

}  // namespace fsbench

#endif  // SRC_SIM_FLAT_INDEX_H_
