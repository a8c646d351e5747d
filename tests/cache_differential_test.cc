// Differential test: the slab-backed PageCache vs. the retained pre-slab
// reference implementations (tests/reference_policies.h). Over randomized
// access traces, for all four policies, the two caches must agree on every
// observable decision:
//   - every Insert's victim sequence (key, block, dirty bit, order),
//   - every Lookup/Contains/MarkDirty result,
//   - resident size and dirty count after every operation,
//   - ARC's adaptive T1 target p (bit-identical: same arithmetic, same
//     order), proving ghost-hit adaptation carried over.
// The slab rewrite changes mechanics only; decisions are provably unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "src/sim/page_cache.h"
#include "src/util/rng.h"
#include "tests/reference_policies.h"

namespace fsbench {
namespace {

// gtest prints a parameter that has no operator<< as its raw bytes, and the
// print is part of each test's ctest name. Implicit padding after `kind` would
// print whatever the stack held, renaming the tests on every run; the explicit,
// zeroed padding member keeps the names stable.
struct TraceParam {
  EvictionPolicyKind kind;
  uint8_t padding[7] = {};
  size_t capacity;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TraceParam>,
              "TraceParam must have no implicit padding");

std::string ParamName(const ::testing::TestParamInfo<TraceParam>& info) {
  return std::string(EvictionPolicyKindName(info.param.kind)) + "_cap" +
         std::to_string(info.param.capacity) + "_seed" + std::to_string(info.param.seed);
}

BlockId BlockFor(const PageKey& key) { return key.ino * 1000 + key.index; }

bool EvictedEqual(const PageCache::Evicted& a, const reference::ReferencePageCache::Evicted& b) {
  return a.key == b.key && a.block == b.block && a.dirty == b.dirty;
}

class CacheDifferential : public ::testing::TestWithParam<TraceParam> {};

TEST_P(CacheDifferential, IdenticalVictimSequencesOverRandomTrace) {
  const TraceParam param = GetParam();
  PageCache cache(param.capacity, param.kind);
  reference::ReferencePageCache oracle(param.capacity, param.kind);

  // Key space ~4x the capacity across a handful of inodes, so the trace
  // exercises residency churn, ghost hits and whole-file drops.
  const uint64_t inodes = 4;
  const uint64_t pages_per_inode = std::max<uint64_t>(1, param.capacity * 4 / inodes);
  Rng rng(param.seed * 6364136223846793005ULL + 1442695040888963407ULL);
  auto random_key = [&] {
    return PageKey{1 + rng.NextBelow(inodes), rng.NextBelow(pages_per_inode)};
  };

  bool arc_p_moved = false;
  std::vector<PageCache::Evicted> scratch;
  constexpr int kSteps = 12000;
  for (int step = 0; step < kSteps; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.70) {
      // Touch: lookup, insert on miss (30% of inserts dirty).
      const PageKey key = random_key();
      const bool hit = cache.Lookup(key);
      ASSERT_EQ(hit, oracle.Lookup(key)) << "step " << step;
      if (!hit) {
        const bool dirty = rng.NextDouble() < 0.3;
        const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), dirty);
        const auto expected = oracle.Insert(key, BlockFor(key), dirty);
        ASSERT_EQ(evicted.size(), expected.size()) << "step " << step;
        for (uint32_t i = 0; i < evicted.size(); ++i) {
          ASSERT_TRUE(EvictedEqual(evicted[i], expected[i]))
              << "step " << step << " victim " << i << ": slab {" << evicted[i].key.ino << ","
              << evicted[i].key.index << "} vs oracle {" << expected[i].key.ino << ","
              << expected[i].key.index << "}";
        }
      }
    } else if (action < 0.78) {
      // Re-insert (refresh or ghost revival) without a preceding lookup.
      const PageKey key = random_key();
      const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), false);
      const auto expected = oracle.Insert(key, BlockFor(key), false);
      ASSERT_EQ(evicted.size(), expected.size()) << "step " << step;
      for (uint32_t i = 0; i < evicted.size(); ++i) {
        ASSERT_TRUE(EvictedEqual(evicted[i], expected[i])) << "step " << step;
      }
    } else if (action < 0.88) {
      const PageKey key = random_key();
      ASSERT_EQ(cache.MarkDirty(key), oracle.MarkDirty(key)) << "step " << step;
    } else if (action < 0.93) {
      const PageKey key = random_key();
      ASSERT_EQ(cache.Contains(key), oracle.Contains(key)) << "step " << step;
      cache.Remove(key);
      oracle.Remove(key);
    } else if (action < 0.97) {
      // TakeDirty drains in different orders (the oracle inherits
      // unordered_map iteration when partial), so compare full drains as
      // key-sorted sets.
      cache.TakeDirty(cache.size() + 1, &scratch);
      auto expected = oracle.TakeDirty(oracle.size() + 1);
      ASSERT_EQ(scratch.size(), expected.size()) << "step " << step;
      auto by_key = [](const auto& a, const auto& b) {
        return a.key.ino != b.key.ino ? a.key.ino < b.key.ino : a.key.index < b.key.index;
      };
      std::sort(scratch.begin(), scratch.end(), by_key);
      std::sort(expected.begin(), expected.end(), by_key);
      for (size_t i = 0; i < scratch.size(); ++i) {
        ASSERT_TRUE(EvictedEqual(scratch[i], expected[i])) << "step " << step;
      }
    } else {
      const InodeId ino = 1 + rng.NextBelow(inodes);
      cache.RemoveFile(ino);
      oracle.RemoveFile(ino);
    }

    ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(cache.dirty_count(), oracle.dirty_count()) << "step " << step;
    if (param.kind == EvictionPolicyKind::kArc) {
      ASSERT_EQ(cache.arc_target_t1(), oracle.policy()->target_t1()) << "step " << step;
      arc_p_moved = arc_p_moved || cache.arc_target_t1() != 0.0;
    }
    if (step % 997 == 0) {
      ASSERT_TRUE(cache.CheckInvariants()) << "step " << step;
    }
  }
  ASSERT_TRUE(cache.CheckInvariants());
  if (param.kind == EvictionPolicyKind::kArc) {
    // The trace must actually have exercised ghost-hit adaptation.
    EXPECT_TRUE(arc_p_moved) << "ARC target_t1 never adapted; trace too tame";
  }
}

// A denser unlink-heavy trace: RemoveFile interleaved with inserts, the
// create/delete pattern where the old full-table scan was hottest.
TEST_P(CacheDifferential, RemoveFileLockstep) {
  const TraceParam param = GetParam();
  PageCache cache(param.capacity, param.kind);
  reference::ReferencePageCache oracle(param.capacity, param.kind);
  Rng rng(param.seed + 99);
  for (int step = 0; step < 3000; ++step) {
    const PageKey key{1 + rng.NextBelow(3), rng.NextBelow(param.capacity * 2)};
    if (rng.NextDouble() < 0.9) {
      if (!cache.Contains(key)) {
        const PageCache::EvictedBatch evicted = cache.Insert(key, BlockFor(key), false);
        const auto expected = oracle.Insert(key, BlockFor(key), false);
        ASSERT_EQ(evicted.size(), expected.size()) << "step " << step;
        for (uint32_t i = 0; i < evicted.size(); ++i) {
          ASSERT_TRUE(EvictedEqual(evicted[i], expected[i])) << "step " << step;
        }
      } else {
        oracle.Lookup(key);
        cache.Lookup(key);
      }
    } else {
      const InodeId ino = 1 + rng.NextBelow(3);
      cache.RemoveFile(ino);
      oracle.RemoveFile(ino);
    }
    ASSERT_EQ(cache.size(), oracle.size()) << "step " << step;
  }
  EXPECT_TRUE(cache.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    Traces, CacheDifferential,
    ::testing::Values(TraceParam{.kind = EvictionPolicyKind::kLru, .capacity = 64, .seed = 1},
                      TraceParam{.kind = EvictionPolicyKind::kLru, .capacity = 4, .seed = 2},
                      TraceParam{.kind = EvictionPolicyKind::kClock, .capacity = 64, .seed = 1},
                      TraceParam{.kind = EvictionPolicyKind::kClock, .capacity = 4, .seed = 2},
                      TraceParam{.kind = EvictionPolicyKind::kTwoQueue, .capacity = 64, .seed = 1},
                      TraceParam{.kind = EvictionPolicyKind::kTwoQueue, .capacity = 4, .seed = 2},
                      TraceParam{.kind = EvictionPolicyKind::kArc, .capacity = 64, .seed = 1},
                      TraceParam{.kind = EvictionPolicyKind::kArc, .capacity = 4, .seed = 2},
                      TraceParam{.kind = EvictionPolicyKind::kArc, .capacity = 48, .seed = 3}),
    ParamName);

}  // namespace
}  // namespace fsbench
