// Second-level (flash) cache tier.
//
// Section 3.1 of the paper predicts that systems with multiple cache levels
// (flash, network) show performance curves with "multiple distinctive
// steps" instead of one memory/disk cliff. This tier models exactly that:
// pages evicted from the RAM page cache land here; a RAM miss probes the
// tier before paying the disk penalty. Latency is a flat device cost
// (~100 us class), far from both RAM (~microsecond) and disk
// (~10 millisecond), which is what creates the middle step.
//
// The tier stores identities only (like the page cache): LRU over PageKeys
// with the backing device block retained for writeback bookkeeping.
//
// Layout mirrors src/sim/page_cache.h's slab scheme, scaled down to a single
// LRU list: one open-addressing hash table (linear probe, backward-shift
// deletion) maps PageKey -> node index into parallel arrays
//
//   keys_[n]    identity, compared while probing (ino == kInvalidInode when
//               the node is on the free list — PageKey{0, ...} is never a
//               legal tier key, pages of real files have ino >= 1)
//   blocks_[n]  backing device block
//   links_[n]   intrusive LRU list prev/next (free list reuses .next)
//   hashes_[n]  cached key hash (backward-shift homes)
//   slots_[n]   current table slot (probe-free erase)
//
// so steady-state operation never allocates: the slab is bounded by the
// capacity (the tier never holds more than capacity_pages_ entries) and the
// table is sized for it up front. RemoveFile scans the slab in node-index
// order — an iteration order fixed by allocation history, not by the hash
// seed — which is what made the old collect-under-hash-order walk obsolete.
#ifndef SRC_SIM_FLASH_TIER_H_
#define SRC_SIM_FLASH_TIER_H_

#include <cstdint>
#include <vector>

#include "src/sim/eviction_policy.h"
#include "src/sim/types.h"

namespace fsbench {

struct FlashTierConfig {
  Bytes capacity = 1 * kGiB;
  Nanos read_latency = 90 * kMicrosecond;    // device read + DMA
  Nanos write_latency = 120 * kMicrosecond;  // admission cost (charged async-free)
  Bytes page_size = 4 * kKiB;
};

struct FlashTierStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;

  bool operator==(const FlashTierStats&) const = default;
};

class FlashTier {
 public:
  explicit FlashTier(const FlashTierConfig& config);

  // Probes the tier; a hit refreshes recency and removes the page (it is
  // being promoted back into RAM — exclusive tiering).
  bool LookupAndPromote(const PageKey& key);

  // Admits a page demoted from RAM; evicts the LRU page when full.
  void Insert(const PageKey& key, BlockId block);

  void Remove(const PageKey& key);
  void RemoveFile(InodeId ino);
  void Clear();

  // Forces the identity table to at least `buckets` slots. Tier behaviour
  // must be identical whatever the table geometry — the determinism
  // regression test drives two differently-sized tiers through one op
  // sequence.
  void RehashForTest(size_t buckets);

  size_t size() const { return size_; }
  size_t capacity_pages() const { return capacity_pages_; }
  const FlashTierConfig& config() const { return config_; }
  const FlashTierStats& stats() const { return stats_; }
  bool Contains(const PageKey& key) const { return FindNode(key) != kNil; }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Link {
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  static uint32_t HashOf(const PageKey& key) {
    return static_cast<uint32_t>(PageKeyHash{}(key));
  }

  // Key's slot, or the first empty slot of its probe run.
  size_t ProbeSlot(const PageKey& key, uint32_t hash) const {
    size_t slot = hash & table_mask_;
    for (;;) {
      const uint32_t node = table_[slot];
      if (node == kNil || keys_[node] == key) {
        return slot;
      }
      slot = (slot + 1) & table_mask_;
    }
  }
  uint32_t FindNode(const PageKey& key) const {
    return table_[ProbeSlot(key, HashOf(key))];
  }

  void TableInsertAt(size_t slot, uint32_t node);
  void TableEraseNode(uint32_t node);  // probe-free: starts from slots_[node]
  void TableGrow(size_t buckets);

  uint32_t AllocNode(const PageKey& key, uint32_t hash);
  void ReleaseNode(uint32_t n);

  void LruPushFront(uint32_t n);
  void LruUnlink(uint32_t n);

  // Full removal of a live node: LRU unlink + table erase + slab release.
  void EraseNode(uint32_t n);

  FlashTierConfig config_;
  size_t capacity_pages_;

  // Slab: parallel arrays indexed by node id (see the layout comment atop
  // this header); grows once up to capacity_pages_ nodes, then recycles.
  std::vector<PageKey> keys_;
  std::vector<BlockId> blocks_;
  std::vector<Link> links_;
  std::vector<uint32_t> hashes_;
  std::vector<uint32_t> slots_;
  uint32_t free_head_ = kNil;  // free list threaded through links_[].next

  std::vector<uint32_t> table_;  // node indices; kNil == empty
  size_t table_mask_ = 0;

  uint32_t lru_head_ = kNil;  // MRU end
  uint32_t lru_tail_ = kNil;  // LRU end
  size_t size_ = 0;

  FlashTierStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_FLASH_TIER_H_
