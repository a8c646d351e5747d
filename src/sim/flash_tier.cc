#include "src/sim/flash_tier.h"

namespace fsbench {

FlashTier::FlashTier(const FlashTierConfig& config)
    : config_(config),
      cache_(static_cast<size_t>(config.capacity / config.page_size), EvictionPolicyKind::kLru) {}

bool FlashTier::LookupAndPromote(const PageKey& key) {
  if (!cache_.Contains(key)) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  cache_.Remove(key);
  return true;
}

void FlashTier::Insert(const PageKey& key, BlockId block) {
  const uint64_t insertions_before = cache_.stats().insertions;
  stats_.evictions += cache_.Insert(key, block, /*dirty=*/false).size();
  stats_.insertions += cache_.stats().insertions - insertions_before;
}

}  // namespace fsbench
