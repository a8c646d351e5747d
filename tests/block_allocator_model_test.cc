// Model test of the lazy block allocator: random operation sequences run
// against BlockAllocator and against FlatAllocator, a flat one-bool-per-block
// spec of the same goal-directed policy written the obvious way. After every
// operation both must agree on the returned blocks, the stats, every block's
// allocation state, and the allocator's own invariant check. Groups start in
// prefix form (mkfs headers), so frees and allocations inside and around a
// prefix that has no bitmap yet are exercised throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/block_allocator.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

class FlatAllocator {
 public:
  FlatAllocator(uint64_t total, uint64_t group) : used_(total, false), group_(group) {}

  std::optional<BlockId> AllocateBlock(BlockId goal) {
    if (std::count(used_.begin(), used_.end(), false) == 0) {
      return std::nullopt;
    }
    goal = std::min<BlockId>(goal, used_.size() - 1);
    if (!used_[goal]) {
      ++stats.goal_hits;
      return Take(goal, 1).start;
    }
    const BlockId start = goal / group_ * group_;
    const BlockId end = std::min<BlockId>(start + group_, used_.size());
    for (const auto& [from, to] : {std::pair{goal + 1, end}, std::pair{start, goal}}) {
      if (const Extent run = Run(from, to, 1, 1); run.count != 0) {
        return Take(run.start, 1).start;
      }
    }
    ++stats.group_spills;
    for (const uint64_t g : SpillOrder(goal / group_)) {
      if (const Extent run = Run(g * group_, (g + 1) * group_, 1, 1); run.count != 0) {
        return Take(run.start, 1).start;
      }
    }
    return std::nullopt;
  }

  std::optional<Extent> AllocateExtent(BlockId goal, uint64_t min, uint64_t max) {
    if (static_cast<uint64_t>(std::count(used_.begin(), used_.end(), false)) < min) {
      return std::nullopt;
    }
    goal = std::min<BlockId>(goal, used_.size() - 1);
    const BlockId start = goal / group_ * group_;
    Extent run = Run(goal, start + group_, min, max);
    if (run.count == 0) {
      run = Run(start, start + group_, min, max);
    }
    if (run.count == 0) {
      ++stats.group_spills;
      for (const uint64_t g : SpillOrder(goal / group_)) {
        if (run = Run(g * group_, (g + 1) * group_, min, max); run.count != 0) {
          break;
        }
      }
    }
    if (run.count == 0) {
      return std::nullopt;
    }
    stats.goal_hits += run.start == goal ? 1 : 0;
    return Take(run.start, run.count);
  }

  std::vector<Extent> AllocateBlocks(BlockId goal, uint64_t count) {
    std::vector<Extent> extents;
    if (static_cast<uint64_t>(std::count(used_.begin(), used_.end(), false)) < count) {
      return extents;
    }
    for (; count > 0; goal = extents.back().start + extents.back().count) {
      extents.push_back(*AllocateExtent(goal, 1, count));
      count -= extents.back().count;
    }
    return extents;
  }

  Extent AllocateRunAt(BlockId goal, uint64_t max) {
    uint64_t n = 0;
    while (n < max && goal + n < used_.size() && !used_[goal + n]) {
      ++n;
    }
    if (n == 0) {
      return Extent{goal, 0};
    }
    stats.goal_hits += n;
    return Take(goal, n);
  }

  void ReserveRange(const Extent& e) { std::fill_n(used_.begin() + e.start, e.count, true); }

  void Free(const Extent& e) {
    std::fill_n(used_.begin() + e.start, e.count, false);
    stats.frees += e.count;
  }

  bool IsAllocated(BlockId b) const { return used_[b]; }
  uint64_t total() const { return used_.size(); }

  BlockAllocatorStats stats;

 private:
  // First maximal free run in [from, to) at least `min` long, cut to `max`.
  Extent Run(BlockId from, BlockId to, uint64_t min, uint64_t max) const {
    to = std::min<BlockId>(to, used_.size());
    for (BlockId b = from; b < to; ++b) {
      BlockId e = b;
      while (e < to && !used_[e]) {
        ++e;
      }
      if (e - b >= min) {
        return Extent{b, std::min(e - b, max)};
      }
      b = e;
    }
    return Extent{kInvalidBlock, 0};
  }

  // Groups alternating outward from `group`: +1, -1, +2, -2, ...
  std::vector<uint64_t> SpillOrder(uint64_t group) const {
    const int64_t groups = static_cast<int64_t>((used_.size() + group_ - 1) / group_);
    std::vector<uint64_t> order;
    for (int64_t d = 1; d < groups; ++d) {
      for (const int64_t g : {static_cast<int64_t>(group) + d, static_cast<int64_t>(group) - d}) {
        if (g >= 0 && g < groups) {
          order.push_back(static_cast<uint64_t>(g));
        }
      }
    }
    return order;
  }

  Extent Take(BlockId start, uint64_t count) {
    std::fill_n(used_.begin() + start, count, true);
    stats.allocations += count;
    return Extent{start, count};
  }

  std::vector<bool> used_;
  uint64_t group_;
};

struct Geometry {
  uint64_t total_blocks;
  uint64_t group_blocks;
  uint64_t header_blocks;  // reserved at the front of every group, as mkfs does
};

void ExpectSameState(const BlockAllocator& lazy, const FlatAllocator& flat, const std::string& op) {
  ASSERT_EQ(lazy.stats(), flat.stats) << op;
  uint64_t used = 0;
  for (BlockId b = 0; b < flat.total(); ++b) {
    ASSERT_EQ(lazy.IsAllocated(b), flat.IsAllocated(b)) << op << ", block " << b;
    used += flat.IsAllocated(b) ? 1 : 0;
  }
  ASSERT_EQ(lazy.used_blocks(), used) << op;
  ASSERT_TRUE(lazy.CheckInvariants()) << op;
}

class AllocatorModel : public ::testing::TestWithParam<std::tuple<Geometry, uint64_t>> {};

TEST_P(AllocatorModel, RandomOpsMatchFlatSpec) {
  const auto& [geometry, seed] = GetParam();
  const uint64_t total = geometry.total_blocks;
  BlockAllocator lazy(total, geometry.group_blocks);
  FlatAllocator flat(total, geometry.group_blocks);
  for (BlockId start = 0; start < total; start += geometry.group_blocks) {
    const Extent header{start,
                        std::min({geometry.header_blocks, geometry.group_blocks, total - start})};
    lazy.ReserveRange(header);
    flat.ReserveRange(header);
  }
  ExpectSameState(lazy, flat, "mkfs");

  Rng rng(seed);
  BlockId next = 0;  // the block after the last one handed out: prefix appends
  for (int step = 0; step < 1500; ++step) {
    const BlockId goal = rng.NextBelow(2) == 0 ? rng.NextBelow(total + 2) : next;
    // Mostly short requests; one in four may span several groups.
    const uint64_t limit = rng.NextBelow(4) == 0 ? 3 * geometry.group_blocks : 12;
    const uint64_t count = 1 + rng.NextBelow(limit);
    SCOPED_TRACE(testing::Message() << "step " << step);
    std::ostringstream op;
    switch (rng.NextBelow(7)) {
      case 0: {
        op << "AllocateBlock(" << goal << ")";
        const std::optional<BlockId> got = lazy.AllocateBlock(goal);
        ASSERT_EQ(got, flat.AllocateBlock(goal)) << op.str();
        next = got.has_value() ? *got + 1 : next;
        break;
      }
      case 1: {
        const uint64_t min = 1 + rng.NextBelow(count);
        op << "AllocateExtent(" << goal << ", " << min << ", " << count << ")";
        const std::optional<Extent> got = lazy.AllocateExtent(goal, min, count);
        ASSERT_EQ(got, flat.AllocateExtent(goal, min, count)) << op.str();
        next = got.has_value() ? got->start + got->count : next;
        break;
      }
      case 2: {
        op << "AllocateBlocks(" << goal << ", " << count << ")";
        const std::vector<Extent> got = lazy.AllocateBlocks(goal, count);
        ASSERT_EQ(got, flat.AllocateBlocks(goal, count)) << op.str();
        next = got.empty() ? next : got.back().start + got.back().count;
        break;
      }
      case 3: {
        op << "AllocateRunAt(" << goal << ", " << count << ")";
        const Extent got = lazy.AllocateRunAt(goal, count);
        ASSERT_EQ(got, flat.AllocateRunAt(goal, count)) << op.str();
        next = got.start + got.count;
        break;
      }
      case 4:
      case 5:
      case 6: {
        // Free (or, one time in three, reserve) the longest run from a
        // random block that is wholly allocated (free), up to `count`.
        const bool reserve = rng.NextBelow(3) == 0;
        const BlockId start = rng.NextBelow(total);
        uint64_t n = 0;
        while (n < count && start + n < total && flat.IsAllocated(start + n) != reserve) {
          ++n;
        }
        if (n == 0) {
          continue;
        }
        op << (reserve ? "ReserveRange" : "Free") << "({" << start << ", " << n << "})";
        if (reserve) {
          lazy.ReserveRange(Extent{start, n});
          flat.ReserveRange(Extent{start, n});
        } else {
          lazy.Free(Extent{start, n});
          flat.Free(Extent{start, n});
        }
        break;
      }
    }
    ExpectSameState(lazy, flat, op.str());
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AllocatorModel,
    ::testing::Combine(::testing::Values(Geometry{1024, 256, 16},  // whole words, whole groups
                                         Geometry{1000, 96, 5},    // groups end mid-word, tail 40
                                         Geometry{777, 100, 0},    // no headers, tail 77
                                         Geometry{130, 50, 3},     // sub-word groups, tail 30
                                         Geometry{300, 128, 60}),  // header fills the tail
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      const Geometry& g = std::get<0>(info.param);
      std::ostringstream name;
      name << "blocks" << g.total_blocks << "_group" << g.group_blocks << "_header"
           << g.header_blocks << "_seed" << std::get<1>(info.param);
      return name.str();
    });

TEST(AllocatorModelTest, FreeInsideUnbuiltPrefix) {
  BlockAllocator lazy(300, 100);
  FlatAllocator flat(300, 100);
  lazy.ReserveRange(Extent{100, 70});  // group 1: a 70-block prefix, no bitmap yet
  flat.ReserveRange(Extent{100, 70});
  lazy.Free(Extent{120, 5});
  flat.Free(Extent{120, 5});
  ExpectSameState(lazy, flat, "Free inside prefix");
  // The hole is reused before the space past the old prefix.
  EXPECT_EQ(lazy.AllocateBlock(110), std::optional<BlockId>(120));
  EXPECT_EQ(flat.AllocateBlock(110), std::optional<BlockId>(120));
  // [121, 125) is too short for five blocks; the run comes from past the prefix.
  EXPECT_EQ(lazy.AllocateExtent(100, 5, 5), std::optional<Extent>(Extent{170, 5}));
  EXPECT_EQ(flat.AllocateExtent(100, 5, 5), std::optional<Extent>(Extent{170, 5}));
  ExpectSameState(lazy, flat, "after refill");
}

}  // namespace
}  // namespace fsbench
