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
// The tier is an LRU PageCache (src/sim/page_cache.h) holding clean
// identities plus their backing device block, with exclusive-tiering
// semantics on top: a hit promotes the page back into RAM and so removes it
// here. Everything else (slab, LRU list, hash index, the per-inode chain
// RemoveFile walks) is the page cache's.
#ifndef SRC_SIM_FLASH_TIER_H_
#define SRC_SIM_FLASH_TIER_H_

#include <cstdint>

#include "src/sim/page_cache.h"
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

  // Probes the tier; a hit removes the page (it is being promoted back into
  // RAM — exclusive tiering).
  bool LookupAndPromote(const PageKey& key);

  // Admits a page demoted from RAM, evicting the LRU page when full. A page
  // already present is refreshed (recency and block), not counted again.
  void Insert(const PageKey& key, BlockId block);

  void Remove(const PageKey& key) { cache_.Remove(key); }
  void RemoveFile(InodeId ino) { cache_.RemoveFile(ino); }
  void Clear() { cache_.Clear(); }

  size_t size() const { return cache_.size(); }
  size_t capacity_pages() const { return cache_.capacity(); }
  const FlashTierConfig& config() const { return config_; }
  const FlashTierStats& stats() const { return stats_; }
  bool Contains(const PageKey& key) const { return cache_.Contains(key); }

 private:
  FlashTierConfig config_;
  PageCache cache_;
  FlashTierStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_FLASH_TIER_H_
