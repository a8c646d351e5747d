// Ablation: cache eviction policy (design-choice study from DESIGN.md).
//
// The paper asks "How are elements evicted from the cache? ... none of the
// existing benchmarks consider these questions" (section 2). This bench is
// the nano-benchmark that does: the same skewed random-read workload over a
// working set 1.5x the cache, across LRU / CLOCK / 2Q / ARC, plus the
// uniform case where policies cannot differ much (a negative control).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/nano_suite.h"
#include "src/core/report.h"
#include "src/util/ascii.h"

namespace fsbench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Ablation: page-cache eviction policy (caching dimension, isolated)",
              "section 2 discussion (caching dimension)");

  NanoSuiteConfig config;
  config.runs = 3;
  config.duration = BenchDuration(args, 5 * kSecond, 20 * kSecond, kSecond);
  config.base_seed = args.seed;
  NanoSuite suite(config);

  const EvictionPolicyKind kinds[] = {EvictionPolicyKind::kLru, EvictionPolicyKind::kClock,
                                      EvictionPolicyKind::kTwoQueue, EvictionPolicyKind::kArc};

  // Both studies run as one host-parallel batch: cells [0,4) are the
  // scan-resistance nano-bench, cells [4,8) the uniform negative control.
  // Each cell owns its slot, so tables render identically for any --jobs.
  constexpr size_t kPolicies = 4;
  std::vector<NanoResult> quality(kPolicies);
  std::vector<ExperimentResult> uniform(kPolicies);
  const std::vector<std::string> errors = RunCells(2 * kPolicies, args.jobs, [&](size_t index) {
    const EvictionPolicyKind kind = kinds[index % kPolicies];
    if (index < kPolicies) {
      quality[index] = suite.CacheEvictionQuality(PaperMachine(FsKind::kExt2, kind));
      return;
    }
    ExperimentConfig experiment_config;
    experiment_config.runs = 2;
    experiment_config.duration = config.duration;
    experiment_config.prewarm = true;
    experiment_config.base_seed = args.seed;
    experiment_config.jobs = args.jobs;
    uniform[index - kPolicies] = Experiment(experiment_config)
                                     .Run(PaperMachine(FsKind::kExt2, kind),
                                          RandomReadOf(615 * kMiB));  // ~1.5x cache
  });
  if (ReportFailedCells(errors, [&](size_t index) {
        return std::string(index < kPolicies ? "scan-resistance " : "uniform ") +
               EvictionPolicyKindName(kinds[index % kPolicies]);
      })) {
    return 1;
  }

  std::printf("scan-resistance: zipf(0.9) hot set (0.5x cache) + concurrent sequential scan\n"
              "over a 3x-cache file; hot-set hit ratio after eviction pressure builds:\n");
  AsciiTable table;
  table.SetHeader({"policy", "hot hit %", "rel stddev %"});
  for (size_t i = 0; i < kPolicies; ++i) {
    table.AddRow({EvictionPolicyKindName(kinds[i]), FormatDouble(quality[i].value, 2),
                  FormatDouble(quality[i].across_runs.rel_stddev_pct, 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("negative control: uniform random over the same working set\n"
              "(every demand-paging policy converges to ~cache/file hit ratio):\n");
  AsciiTable control;
  control.SetHeader({"policy", "hit %"});
  for (size_t i = 0; i < kPolicies; ++i) {
    control.AddRow({EvictionPolicyKindName(kinds[i]),
                    FormatDouble(uniform[i].AllOk()
                                     ? uniform[i].representative().cache_hit_ratio * 100.0
                                     : 0.0,
                                 2)});
  }
  std::printf("%s\n", control.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
