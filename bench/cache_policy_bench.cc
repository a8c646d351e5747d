// Page-cache throughput benchmark: raw slab-cache ops/sec per eviction
// policy at several capacities, written to BENCH_cache.json so the perf
// trajectory of the simulator's hottest structure is tracked PR-over-PR.
//
// The workload is the cache's steady-state op mix as the VFS drives it: a
// zipf-skewed touch stream (lookup, insert on miss, 20% of misses dirty),
// periodic writeback drains (TakeDirty) and whole-file drops (RemoveFile) —
// the create/delete pattern hot in postmark-like workloads. Wall time is
// real time: this measures the harness itself, the observer-effect side of
// the paper's argument.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/sim/page_cache.h"
#include "src/util/ascii.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

struct CacheBenchResult {
  const char* policy;
  size_t capacity;
  uint64_t ops;
  double seconds;
  double mops_per_sec;
  double hit_ratio;
};

CacheBenchResult RunOne(EvictionPolicyKind kind, size_t capacity, uint64_t ops, uint64_t seed) {
  PageCache cache(capacity, kind);
  Rng rng(seed);
  const uint64_t inodes = 64;
  const uint64_t pages_per_inode = capacity * 4 / inodes + 1;
  std::vector<PageCache::Evicted> writeback;
  PageCache::EvictedBatch evicted;

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t op = 0; op < ops; ++op) {
    const uint64_t rank = rng.NextZipf(inodes * pages_per_inode, 0.9);
    const PageKey key{1 + rank / pages_per_inode, rank % pages_per_inode};
    if (!cache.Lookup(key)) {
      cache.Insert(key, rank, /*dirty=*/(op & 4u) == 0 && (op & 1u) != 0, &evicted);
    }
    if ((op & 0xFFFu) == 0xFFFu) {
      cache.TakeDirty(256, &writeback);
    }
    if ((op & 0xFFFFu) == 0xFFFFu) {
      cache.RemoveFile(1 + rng.NextBelow(inodes));
    }
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  CacheBenchResult result;
  result.policy = EvictionPolicyKindName(kind);
  result.capacity = capacity;
  result.ops = ops;
  result.seconds = elapsed.count();
  result.mops_per_sec = static_cast<double>(ops) / elapsed.count() / 1e6;
  const PageCacheStats& stats = cache.stats();
  result.hit_ratio =
      static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses);
  return result;
}

int Run(const BenchArgs& args) {
  PrintHeader("Page-cache policy throughput (slab cache, real time)",
              "harness overhead discussion (section 1: benchmarks perturbing what they measure)");

  const EvictionPolicyKind kinds[] = {EvictionPolicyKind::kLru, EvictionPolicyKind::kClock,
                                      EvictionPolicyKind::kTwoQueue, EvictionPolicyKind::kArc};
  const size_t capacities[] = {1024, 16384, 104960};
  const uint64_t ops = args.smoke ? 500'000 : (args.paper_scale ? 8'000'000 : 2'000'000);

  std::vector<CacheBenchResult> results;
  AsciiTable table;
  table.SetHeader({"policy", "capacity", "Mops/s", "hit %"});
  for (const EvictionPolicyKind kind : kinds) {
    for (const size_t capacity : capacities) {
      const CacheBenchResult result = RunOne(kind, capacity, ops, args.seed);
      table.AddRow({result.policy, std::to_string(result.capacity),
                    FormatDouble(result.mops_per_sec, 2),
                    FormatDouble(result.hit_ratio * 100.0, 1)});
      results.push_back(result);
    }
  }
  std::printf("%s\n", table.Render().c_str());

  BenchJson json("cache_policy");
  json.header().Int("ops_per_cell", ops);
  for (const CacheBenchResult& r : results) {
    json.AddRow().Str("policy", r.policy).Int("capacity", r.capacity).Int("ops", r.ops)
        .Fixed("seconds", r.seconds, 6).Fixed("mops_per_sec", r.mops_per_sec, 3)
        .Fixed("hit_ratio", r.hit_ratio, 4);
  }
  return json.Write("BENCH_cache.json") ? 0 : 1;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
