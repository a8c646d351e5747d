// Model test for FlatIndex (src/sim/flat_index.h), the open-addressing
// table behind the page cache, the directory index and the inode table.
// A small map built the way those callers build theirs (Probe, store into
// the returned position, Erase with back-pointer updates, Resize at a load
// threshold) is driven through long random op sequences next to a
// std::unordered_map model. After every op, every key of the universe must
// agree on membership and value, every entry's recorded position must be
// current, and the table must hold exactly the model's entries.
//
// The hashes are chosen to stress backward-shift deletion: one that sends
// every key to the same home (a single run the whole table long), and one
// whose homes sit in the last slots so runs wrap past slot 0. A table that
// keeps an entry whose home is the hole in place, or that moves one whose
// home lies after the hole, loses keys here within a few ops.
#include "src/sim/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace fsbench {
namespace {

constexpr uint64_t kUniverse = 96;  // keys 1..kUniverse; 0 marks an empty slot

struct Entry {
  uint64_t key = 0;
  uint64_t value = 0;

  bool empty() const { return key == 0; }
};

using KeyHash = std::function<size_t(uint64_t key, size_t table_size)>;

// Key -> value map over FlatIndex, growing past a 0.7 load factor like the
// directory and inode tables. `position_` is the back-pointer array the
// page cache keeps in its slots_[], maintained only through Erase's `moved`.
class ModelMap {
 public:
  ModelMap(size_t initial_size, KeyHash hash)
      : index_(initial_size), hash_(std::move(hash)), position_(kUniverse + 1, kAbsent) {}

  bool Insert(uint64_t key, uint64_t value) {
    size_t pos = Probe(key);
    if (!index_[pos].empty()) {
      return false;
    }
    if ((count_ + 1) * 10 > index_.size() * 7) {
      Resize(index_.size() * 2);
      pos = Probe(key);
    }
    index_[pos] = Entry{key, value};
    position_[key] = pos;
    ++count_;
    return true;
  }

  bool Erase(uint64_t key) {
    const size_t pos = Probe(key);
    if (index_[pos].empty()) {
      return false;
    }
    position_[key] = kAbsent;
    const size_t hole = index_.Erase(
        pos, [this](const Entry& entry) { return HomeHash(entry.key); },
        [this](const Entry& entry, size_t moved_to) { position_[entry.key] = moved_to; });
    EXPECT_TRUE(index_[hole].empty()) << "Erase returned a live position";
    --count_;
    return true;
  }

  const Entry* Find(uint64_t key) const {
    const Entry& entry = index_[Probe(key)];
    return entry.empty() ? nullptr : &entry;
  }

  void Resize(size_t size) {
    index_.Resize(size, [this, size](const Entry& entry) { return hash_(entry.key, size); });
    // Resize re-places every entry; refresh the back-pointers from scratch.
    for (size_t pos = 0; pos < index_.size(); ++pos) {
      if (!index_[pos].empty()) {
        position_[index_[pos].key] = pos;
      }
    }
  }

  // Every recorded position is current, and the table holds `count_` entries.
  std::string CheckPositions() const {
    size_t live = 0;
    for (size_t pos = 0; pos < index_.size(); ++pos) {
      if (index_[pos].empty()) {
        continue;
      }
      ++live;
      if (position_[index_[pos].key] != pos) {
        return "stale position for key " + std::to_string(index_[pos].key);
      }
    }
    return live == count_ ? "" : "table population != entry count";
  }

  size_t table_size() const { return index_.size(); }

 private:
  static constexpr size_t kAbsent = ~size_t{0};

  size_t HomeHash(uint64_t key) const { return hash_(key, index_.size()); }
  size_t Probe(uint64_t key) const {
    return index_.Probe(HomeHash(key), [key](const Entry& entry) { return entry.key == key; });
  }

  FlatIndex<Entry> index_;
  KeyHash hash_;
  std::vector<size_t> position_;
  size_t count_ = 0;
};

size_t MixedHash(uint64_t key, size_t /*table_size*/) { return MixId(key); }
size_t OneHome(uint64_t /*key*/, size_t table_size) { return table_size - 2; }
size_t HomesAtTableEnd(uint64_t key, size_t table_size) {
  return table_size - 1 - (MixId(key) % 4);
}

struct HashCase {
  const char* name;
  size_t (*hash)(uint64_t, size_t);
};

const HashCase kHashes[] = {
    {"mixed", MixedHash},
    {"one_home", OneHome},
    {"homes_at_table_end", HomesAtTableEnd},
};

// One random op sequence applied to the model and to maps of two initial
// sizes; a forced Resize lands mid-sequence. Both maps must match the model
// (and hence each other) after every op.
void RunModelSequence(const HashCase& hash_case, uint64_t seed, int ops) {
  SCOPED_TRACE(std::string(hash_case.name) + " seed " + std::to_string(seed));
  std::unordered_map<uint64_t, uint64_t> model;
  ModelMap small(16, hash_case.hash);
  ModelMap large(1024, hash_case.hash);
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const uint64_t key = 1 + rng.NextBelow(kUniverse);
    const uint64_t roll = rng.NextBelow(10);
    if (op == ops / 2) {
      small.Resize(small.table_size() * 4);
      large.Resize(large.table_size() * 2);
    } else if (roll < 5) {
      const uint64_t value = rng.NextU64();
      const bool inserted = model.emplace(key, value).second;
      ASSERT_EQ(small.Insert(key, value), inserted) << "op " << op;
      ASSERT_EQ(large.Insert(key, value), inserted) << "op " << op;
    } else {
      const bool erased = model.erase(key) == 1;
      ASSERT_EQ(small.Erase(key), erased) << "op " << op;
      ASSERT_EQ(large.Erase(key), erased) << "op " << op;
    }
    for (uint64_t k = 1; k <= kUniverse; ++k) {
      const auto it = model.find(k);
      for (const ModelMap* map : {&small, &large}) {
        const Entry* found = map->Find(k);
        ASSERT_EQ(found != nullptr, it != model.end()) << "op " << op << " key " << k;
        if (found != nullptr) {
          ASSERT_EQ(found->value, it->second) << "op " << op << " key " << k;
        }
      }
    }
    ASSERT_EQ(small.CheckPositions(), "") << "op " << op;
    ASSERT_EQ(large.CheckPositions(), "") << "op " << op;
  }
}

TEST(FlatIndexTest, RandomOpsMatchUnorderedMapModel) {
  for (const HashCase& hash_case : kHashes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunModelSequence(hash_case, seed, 1500);
    }
  }
}

TEST(FlatIndexTest, EraseShiftsBackAcrossTheWrap) {
  // Four keys homed at the last slot of an 8-slot table occupy positions
  // 7, 0, 1, 2. Erasing the head must pull each successor back one slot,
  // across the wrap, and report position 2 as the final hole.
  FlatIndex<Entry> index(8);
  const auto hash_of = [](const Entry&) { return size_t{7}; };
  for (uint64_t key = 1; key <= 4; ++key) {
    index[index.Probe(7, [](const Entry&) { return false; })] = Entry{key, key};
  }
  std::vector<size_t> moves;
  const size_t hole =
      index.Erase(7, hash_of, [&moves](const Entry&, size_t pos) { moves.push_back(pos); });
  EXPECT_EQ(hole, 2u);
  EXPECT_EQ(moves, (std::vector<size_t>{7, 0, 1}));
  EXPECT_EQ(index[7].key, 2u);
  EXPECT_EQ(index[0].key, 3u);
  EXPECT_EQ(index[1].key, 4u);
  EXPECT_TRUE(index[2].empty());
}

TEST(FlatIndexTest, EraseLeavesEntriesHomedAfterTheHole) {
  // Position 1 holds a key homed at 1 and position 2 one homed at 2: after
  // erasing position 0, neither may move (each already sits at its home).
  FlatIndex<Entry> index(8);
  index[0] = Entry{10, 0};
  index[1] = Entry{11, 1};
  index[2] = Entry{12, 2};
  int moves = 0;
  const size_t hole = index.Erase(
      0, [](const Entry& entry) { return static_cast<size_t>(entry.value); },
      [&moves](const Entry&, size_t) { ++moves; });
  EXPECT_EQ(hole, 0u);
  EXPECT_EQ(moves, 0);
  EXPECT_TRUE(index[0].empty());
  EXPECT_EQ(index[1].key, 11u);
  EXPECT_EQ(index[2].key, 12u);
}

TEST(FlatIndexTest, PowerOfTwoAtLeast) {
  EXPECT_EQ(PowerOfTwoAtLeast(0, 1), 1u);
  EXPECT_EQ(PowerOfTwoAtLeast(5, 1), 8u);
  EXPECT_EQ(PowerOfTwoAtLeast(64, 16), 64u);
  EXPECT_EQ(PowerOfTwoAtLeast(3, 16), 16u);
  EXPECT_EQ(PowerOfTwoAtLeast(17, 16), 32u);
}

}  // namespace
}  // namespace fsbench
