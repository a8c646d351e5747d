// Differential test of PageCache::InsertRun against the per-page loop it
// stands for: for each page, Insert every meta key, then Insert the data
// page and keep its victims. Twin caches get the same history (dirty pages,
// lookups, and for 2Q/ARC ghosts of both meta and data keys), then the same
// runs, one through InsertRun and one through the loop. Capacities are far
// below the run lengths, so meta pages are evicted and re-inserted mid-run
// and their nodes are reused by other keys. After every run the caches must
// agree on stats, victims, size, ghosts, ARC's target and invariants; at
// the end both are drained with fresh keys and must evict in the same order.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/page_cache.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

constexpr InodeId kFile = 7;

MetaRef Meta(uint64_t block) { return MetaRef{kMetaInode, block, block}; }

// The loop InsertRun replaces; returns the data inserts' victims in order.
std::vector<PageCache::Evicted> PageLoop(PageCache& cache, const std::vector<MetaRef>& meta,
                                         InodeId ino, uint64_t first_page,
                                         const std::vector<BlockId>& blocks) {
  std::vector<PageCache::Evicted> victims;
  PageCache::EvictedBatch batch;
  for (uint64_t i = 0; i < blocks.size(); ++i) {
    for (const MetaRef& ref : meta) {
      cache.Insert(PageKey{ref.ino, ref.index}, ref.block, /*dirty=*/false, nullptr);
    }
    cache.Insert(PageKey{ino, first_page + i}, blocks[i], /*dirty=*/false, &batch);
    victims.insert(victims.end(), batch.begin(), batch.end());
  }
  return victims;
}

bool SameVictims(const std::vector<PageCache::Evicted>& a,
                 const std::vector<PageCache::Evicted>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].key == b[i].key) || a[i].block != b[i].block || a[i].dirty != b[i].dirty) {
      return false;
    }
  }
  return true;
}

void ExpectTwinsAgree(const PageCache& run, const PageCache& loop) {
  EXPECT_EQ(run.stats(), loop.stats());
  EXPECT_EQ(run.size(), loop.size());
  EXPECT_EQ(run.dirty_count(), loop.dirty_count());
  EXPECT_EQ(run.ghost_count(), loop.ghost_count());
  EXPECT_EQ(run.arc_target_t1(), loop.arc_target_t1());
  const char* why = nullptr;
  EXPECT_TRUE(run.CheckInvariants(&why)) << why;
  EXPECT_TRUE(loop.CheckInvariants(&why)) << why;
}

// Meta blocks 1..8, the file's pages 0..299 and another file's pages, with
// dirty inserts and lookups, so runs start from resident, dirty and ghost
// entries of their own keys.
void History(PageCache& cache, uint64_t seed) {
  Rng rng(seed);
  for (int step = 0; step < 400; ++step) {
    const uint64_t pick = rng.NextBelow(3);
    const PageKey key = pick == 0   ? PageKey{kMetaInode, 1 + rng.NextBelow(8)}
                        : pick == 1 ? PageKey{kFile, rng.NextBelow(300)}
                                    : PageKey{kFile + 1, rng.NextBelow(50)};
    if (!cache.Lookup(key)) {
      cache.Insert(key, key.index + 100, rng.NextBelow(4) == 0, nullptr);
    }
  }
}

class InsertRunDifferential : public ::testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(InsertRunDifferential, MatchesPerPageInsertLoop) {
  const EvictionPolicyKind kind = GetParam();
  for (const size_t capacity : {1, 2, 3, 5, 17, 64}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << ", seed " << seed);
      PageCache run(capacity, kind);
      PageCache loop(capacity, kind);
      History(run, seed);
      History(loop, seed);
      if (capacity >= 5 &&
          (kind == EvictionPolicyKind::kTwoQueue || kind == EvictionPolicyKind::kArc)) {
        ASSERT_GT(run.ghost_count(), 0u);
      }

      Rng rng(seed + 100);
      std::vector<PageCache::Evicted> victims;
      uint64_t first_page = 0;
      for (int r = 0; r < 12; ++r) {
        // 0-4 meta keys (a repeat allowed; one run takes up to 14, past
        // InsertRun's inline node slots) and a run of 1-150 pages with some
        // holes; runs move forward through the file, then wrap.
        std::vector<MetaRef> meta;
        for (uint64_t m = rng.NextBelow(r == 5 ? 15 : 5); m > 0; --m) {
          meta.push_back(Meta(1 + rng.NextBelow(8)));
        }
        std::vector<BlockId> blocks;
        for (uint64_t p = 1 + rng.NextBelow(150); p > 0; --p) {
          blocks.push_back(rng.NextBelow(10) == 0 ? kInvalidBlock : 5000 + blocks.size());
        }
        victims.clear();
        run.InsertRun(meta, kFile, first_page, blocks,
                      [&victims](const PageCache::Evicted& victim) { victims.push_back(victim); });
        EXPECT_TRUE(SameVictims(victims, PageLoop(loop, meta, kFile, first_page, blocks)))
            << "run " << r;
        ExpectTwinsAgree(run, loop);
        first_page = (first_page + blocks.size()) % 300;
      }

      // Fresh keys push out every resident page and age the ghosts: the
      // policies' remaining order and state must have come out the same.
      PageCache::EvictedBatch run_batch;
      PageCache::EvictedBatch loop_batch;
      for (uint64_t i = 0; i < 3 * capacity + 16; ++i) {
        run.Insert(PageKey{kFile + 2, i}, i, /*dirty=*/false, &run_batch);
        loop.Insert(PageKey{kFile + 2, i}, i, /*dirty=*/false, &loop_batch);
        ASSERT_EQ(run_batch.size(), loop_batch.size()) << "drain " << i;
        for (uint32_t v = 0; v < run_batch.size(); ++v) {
          ASSERT_EQ(run_batch[v].key, loop_batch[v].key) << "drain " << i;
          ASSERT_EQ(run_batch[v].dirty, loop_batch[v].dirty) << "drain " << i;
        }
      }
      ExpectTwinsAgree(run, loop);
    }
  }
}

// An empty run inserts nothing and reports no victims.
TEST_P(InsertRunDifferential, EmptyRunIsANoOp) {
  PageCache cache(4, GetParam());
  const std::vector<MetaRef> meta = {Meta(1)};
  int victims = 0;
  cache.InsertRun(meta, kFile, 0, {}, [&victims](const PageCache::Evicted&) { ++victims; });
  EXPECT_EQ(victims, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats(), PageCacheStats{});
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, InsertRunDifferential,
                         ::testing::Values(EvictionPolicyKind::kLru, EvictionPolicyKind::kClock,
                                           EvictionPolicyKind::kTwoQueue,
                                           EvictionPolicyKind::kArc),
                         [](const auto& info) { return EvictionPolicyKindName(info.param); });

}  // namespace
}  // namespace fsbench
