// Differential test for the slab-backed FlashTier: ReferenceFlashTier below
// is the pre-rework std::list + std::unordered_map implementation, kept
// verbatim as an oracle (the same role ReferenceVfs plays for the VFS
// pipeline). A long randomized op sequence — inserts, promotes, removes,
// whole-file purges, clears, across several files with reinsertion and
// capacity pressure — drives both; every stat, the size, and full membership
// must agree at every checkpoint. LRU victim order is observable through
// which keys survive, so agreement here pins the rework to the old
// behavior exactly.
#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "src/sim/flash_tier.h"
#include "src/util/rng.h"
#include "tests/run_digest.h"

namespace fsbench {
namespace {

class ReferenceFlashTier {
 public:
  explicit ReferenceFlashTier(const FlashTierConfig& config)
      : capacity_pages_(static_cast<size_t>(config.capacity / config.page_size)) {}

  bool LookupAndPromote(const PageKey& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    return true;
  }

  void Insert(const PageKey& key, BlockId block) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      it->second.block = block;
      return;
    }
    while (entries_.size() >= capacity_pages_) {
      const PageKey victim = lru_.back();
      lru_.pop_back();
      entries_.erase(victim);
      ++stats_.evictions;
    }
    lru_.push_front(key);
    entries_.emplace(key, Entry{lru_.begin(), block});
    ++stats_.insertions;
  }

  void Remove(const PageKey& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return;
    }
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }

  void RemoveFile(InodeId ino) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->ino == ino) {
        entries_.erase(*it);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Clear() {
    lru_.clear();
    entries_.clear();
  }

  size_t size() const { return entries_.size(); }
  const FlashTierStats& stats() const { return stats_; }
  bool Contains(const PageKey& key) const { return entries_.count(key) != 0; }

 private:
  struct Entry {
    std::list<PageKey>::iterator lru_it;
    BlockId block = kInvalidBlock;
  };

  size_t capacity_pages_;
  std::list<PageKey> lru_;  // front = MRU
  std::unordered_map<PageKey, Entry, PageKeyHash> entries_;
  FlashTierStats stats_;
};

constexpr uint64_t kFiles = 5;
constexpr uint64_t kPagesPerFile = 48;

void ExpectAgreement(const FlashTier& tier, const ReferenceFlashTier& ref, uint64_t op) {
  ASSERT_EQ(tier.size(), ref.size()) << "op " << op;
  ASSERT_EQ(tier.stats(), ref.stats()) << "op " << op;
  for (uint64_t ino = 1; ino <= kFiles; ++ino) {
    for (uint64_t page = 0; page < kPagesPerFile; ++page) {
      const PageKey key{ino, page};
      ASSERT_EQ(tier.Contains(key), ref.Contains(key))
          << "op " << op << " ino " << ino << " page " << page;
    }
  }
}

TEST(FlashTierDifferentialTest, RandomOpsMatchListAndMapReference) {
  FlashTierConfig config;
  config.capacity = 64 * 4 * kKiB;  // 64 pages: constant capacity pressure
  FlashTier tier(config);
  ReferenceFlashTier ref(config);

  Rng rng(2024);
  constexpr uint64_t kOps = 20000;
  for (uint64_t op = 0; op < kOps; ++op) {
    const uint64_t ino = 1 + rng.NextBelow(kFiles);
    const uint64_t page = rng.NextBelow(kPagesPerFile);
    const PageKey key{ino, page};
    switch (rng.NextBelow(100)) {
      case 0:  // rare full purge
        tier.Clear();
        ref.Clear();
        break;
      case 1:
      case 2:  // occasional whole-file purge
        tier.RemoveFile(ino);
        ref.RemoveFile(ino);
        break;
      case 3:
      case 4:
      case 5:
        tier.Remove(key);
        ref.Remove(key);
        break;
      default:
        if (rng.NextBelow(2) == 0) {
          ASSERT_EQ(tier.LookupAndPromote(key), ref.LookupAndPromote(key)) << "op " << op;
        } else {
          tier.Insert(key, 1000 + ino * kPagesPerFile + page);
          ref.Insert(key, 1000 + ino * kPagesPerFile + page);
        }
        break;
    }
    if (op % 512 == 0 || op + 1 == kOps) {
      ExpectAgreement(tier, ref, op);
    }
  }
}

// A capacity-1 tier exercises the evict-on-every-insert edge and the
// backward-shift path with maximal reuse of one slab node.
TEST(FlashTierDifferentialTest, CapacityOneMatchesReference) {
  FlashTierConfig config;
  config.capacity = 1 * 4 * kKiB;
  FlashTier tier(config);
  ReferenceFlashTier ref(config);

  Rng rng(7);
  for (uint64_t op = 0; op < 2000; ++op) {
    const PageKey key{1 + rng.NextBelow(2), rng.NextBelow(8)};
    if (rng.NextBelow(3) == 0) {
      ASSERT_EQ(tier.LookupAndPromote(key), ref.LookupAndPromote(key)) << "op " << op;
    } else {
      tier.Insert(key, key.index);
      ref.Insert(key, key.index);
    }
  }
  ExpectAgreement(tier, ref, 2000);
}

}  // namespace
}  // namespace fsbench
