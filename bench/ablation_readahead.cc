// Ablation: readahead policy (design-choice study from DESIGN.md).
//
// Section 2 of the paper argues that prefetching and on-disk layout are
// entangled and that a benchmark should be able to attribute behaviour to
// one or the other. Here the layout is held fixed (same ext2 image) while
// the readahead policy is swept; the cache warm-up fill rate and the
// sequential-read bandwidth respond, which is precisely the mechanism
// behind the between-FS divergence in Figure 2.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/report.h"
#include "src/util/ascii.h"

namespace fsbench {
namespace {

MachineFactory MachineWithReadahead(const ReadaheadConfig& readahead) {
  return [readahead](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.seed = seed;
    config.readahead_override = readahead;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

int Run(const BenchArgs& args) {
  PrintHeader("Ablation: readahead policy at fixed on-disk layout",
              "section 2 (prefetching vs layout entanglement); Fig. 2 mechanism");

  struct Case {
    const char* label;
    ReadaheadConfig config;
  };
  const Case cases[] = {
      {"none", {ReadaheadKind::kNone, 0, 0, 0, 0}},
      {"cluster-1", {ReadaheadKind::kAdaptive, 8, 4, 32, 1}},
      {"cluster-2 (ext2)", {ReadaheadKind::kAdaptive, 8, 4, 32, 2}},
      {"cluster-6 (xfs)", {ReadaheadKind::kAdaptive, 8, 8, 64, 6}},
      {"fixed-16", {ReadaheadKind::kFixed, 16, 0, 0, 0}},
  };

  const Nanos duration = BenchDuration(args, 30 * kSecond, 120 * kSecond, 5 * kSecond);

  // One host-parallel cell per readahead case; the table is rendered after
  // the barrier so output is byte-identical for every --jobs value.
  constexpr size_t kCases = sizeof(cases) / sizeof(cases[0]);
  std::vector<ExperimentResult> cells(kCases);
  const std::vector<std::string> errors = RunCells(kCases, args.jobs, [&](size_t i) {
    ExperimentConfig config;
    config.runs = 2;
    config.duration = duration;
    config.base_seed = args.seed;
    config.jobs = args.jobs;
    cells[i] = Experiment(config).Run(MachineWithReadahead(cases[i].config),
                                      RandomReadOf(410 * kMiB));
  });
  if (ReportFailedCells(errors, [&](size_t i) { return std::string(cases[i].label); })) {
    return 1;
  }

  AsciiTable table;
  table.SetHeader({"readahead", "warm-up fill MiB/s", "random ops/s (cold)",
                   "readahead pages/demand"});
  for (size_t i = 0; i < kCases; ++i) {
    const Case& c = cases[i];
    const ExperimentResult& result = cells[i];
    if (!result.AllOk()) {
      std::printf("%s FAILED\n", c.label);
      return 1;
    }
    const RunResult& run = result.representative();
    const double fill_mib =
        static_cast<double>(run.vfs_stats.data_page_misses + run.vfs_stats.readahead_pages) *
        4096.0 / (1024.0 * 1024.0) / ToSeconds(run.measured_duration);
    const double ra_per_demand =
        run.vfs_stats.demand_requests == 0
            ? 0.0
            : static_cast<double>(run.vfs_stats.readahead_pages) /
                  static_cast<double>(run.vfs_stats.demand_requests);
    table.AddRow({c.label, FormatDouble(fill_mib, 2), FormatDouble(result.throughput.mean, 0),
                  FormatDouble(ra_per_demand, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("reading: larger read-around clusters fill the cache faster at identical\n"
              "layout - the warm-up divergence of Figure 2 is a readahead effect, not a\n"
              "layout effect. A benchmark reporting only the steady state cannot see it.\n");
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
