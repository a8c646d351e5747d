// Shared run digest for the determinism tests: a 64-bit FNV-1a over every
// field of a result, derived from the struct declarations themselves
// (src/util/fields.h). Flat aggregates (the stats structs, Summary,
// SweepCell, RunResult, ...) are walked field by field in declaration
// order; vectors and optionals contribute their size / presence before
// their contents; the two classes with private state (RunningStats,
// LatencyHistogram) are digested through their accessors. Field order is
// part of the digest, so a value migrating between fields cannot cancel
// out, and a counter added to any struct is covered with no edit here.
//
// Also provides gtest printers for the stats structs, so a failed EXPECT_EQ
// on a whole struct shows its values by field index.
#ifndef TESTS_RUN_DIGEST_H_
#define TESTS_RUN_DIGEST_H_

#include <cstdint>
#include <cstring>
#include <ostream>
#include <type_traits>

#include "src/core/experiment.h"
#include "src/sim/flash_tier.h"
#include "src/sim/journal.h"
#include "src/sim/page_cache.h"
#include "src/sim/recovery.h"
#include "src/util/fields.h"

namespace fsbench {

class Digest {
 public:
  template <typename T>
  void Add(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      U64(bits);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      U64(static_cast<uint64_t>(v));
    } else if constexpr (std::is_same_v<T, RunningStats>) {
      U64(v.count());
      Add(v.mean());
      Add(v.variance());
      Add(v.min());
      Add(v.max());
      Add(v.sum());
    } else if constexpr (std::is_same_v<T, LatencyHistogram>) {
      U64(v.total());
      for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
        U64(v.count(b));
      }
    } else if constexpr (requires { v.has_value(); }) {  // std::optional
      U64(v.has_value() ? 1 : 0);
      if (v.has_value()) {
        Add(*v);
      }
    } else if constexpr (requires { v.size(); v.begin(); }) {  // vectors, strings
      U64(v.size());
      for (const auto& element : v) {
        Add(element);
      }
    } else {
      ForEachField(v, [this](const auto& field) { Add(field); });
    }
  }

  uint64_t value() const { return h_; }

 private:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }

  uint64_t h_ = 14695981039346656037ULL;
};

template <typename Result>
uint64_t DigestOf(const Result& result) {
  Digest d;
  d.Add(result);
  return d.value();
}

inline uint64_t DigestRunResult(const RunResult& r) { return DigestOf(r); }

// The flat stats structs: a failed whole-struct EXPECT_EQ prints them as
// "{#0=..., #1=..., ...}" in declaration order.
template <typename T>
concept StatsStruct =
    std::is_same_v<T, VfsStats> || std::is_same_v<T, DiskStats> ||
    std::is_same_v<T, IoSchedulerStats> || std::is_same_v<T, FaultSummary> ||
    std::is_same_v<T, ArraySummary> || std::is_same_v<T, CrashReport> ||
    std::is_same_v<T, PageCacheStats> || std::is_same_v<T, JournalStats> ||
    std::is_same_v<T, FlashTierStats>;

template <StatsStruct T>
void PrintTo(const T& s, std::ostream* os) {
  size_t index = 0;
  *os << "{";
  ForEachField(s, [&](const auto& field) {
    *os << (index == 0 ? "" : ", ") << "#" << index << "=" << field;
    ++index;
  });
  *os << "}";
}

}  // namespace fsbench

#endif  // TESTS_RUN_DIGEST_H_
