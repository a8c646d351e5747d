// Extension experiment: multi-level caching.
//
// Section 3.1 of the paper predicts: "More modern file systems rely on
// multiple cache levels (using Flash memory or network). In this case the
// performance curve will have multiple distinctive steps." This bench adds
// a 1 GiB flash tier between the page cache and the disk and re-runs the
// Figure 1 sweep over a wider range: the single RAM/disk cliff becomes two
// cliffs (RAM ~410 MiB, RAM+flash ~1.4 GiB) with a flat flash-speed step
// between them.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/cell_seed.h"
#include "src/core/report.h"

namespace fsbench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Extension: file-size sweep with a 1 GiB flash cache tier",
              "section 3.1 prediction: multi-level caches -> multi-step curves");

  MachineFactory flash_machine = [](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.seed = seed;
    config.flash = FlashTierConfig{};  // 1 GiB, ~90 us reads
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };

  ExperimentConfig config;
  config.runs = args.smoke ? 2 : (args.paper_scale ? 10 : 5);
  config.duration = BenchDuration(args, 8 * kSecond, 30 * kSecond, 2 * kSecond);
  config.prewarm = true;
  config.jobs = args.jobs;

  std::vector<Bytes> sizes_mib;
  for (Bytes mib = 128; mib <= 2304; mib += (mib < 1664 ? 128 : 320)) {
    sizes_mib.push_back(mib);
  }

  // Points run host-parallel; per-point seeds come from DeriveCellSeed keyed
  // by the size parameter (replacing the old `seed + mib` arithmetic), and
  // the table renders after the barrier.
  std::vector<ExperimentResult> cells(sizes_mib.size());
  const std::vector<std::string> errors = RunCells(sizes_mib.size(), args.jobs, [&](size_t i) {
    const Bytes mib = sizes_mib[i];
    ExperimentConfig cell_config = config;
    cell_config.base_seed = DeriveCellSeed(args.seed, mib, 0, 0);
    cells[i] = Experiment(cell_config).Run(flash_machine, RandomReadOf(mib * kMiB));
  });
  if (ReportFailedCells(errors, [&](size_t i) { return std::to_string(sizes_mib[i]) + " MiB"; })) {
    return 1;
  }

  std::vector<SweepRow> rows;
  std::printf("file size   ops/s      rel-std%%  RAM-hit  flash-hit  regime\n");
  for (size_t i = 0; i < sizes_mib.size(); ++i) {
    const Bytes mib = sizes_mib[i];
    const ExperimentResult& result = cells[i];
    if (!result.AllOk()) {
      std::printf("  %llu MiB FAILED (%s)\n", static_cast<unsigned long long>(mib),
                  FsStatusName(result.runs.front().error));
      return 1;
    }
    const RunResult& run = result.representative();
    const uint64_t ram_misses = run.vfs_stats.data_page_misses;
    const double flash_share =
        ram_misses == 0 ? 0.0
                        : static_cast<double>(run.vfs_stats.flash_hits) /
                              static_cast<double>(ram_misses);
    const char* regime = run.cache_hit_ratio > 0.99               ? "RAM"
                         : flash_share > 0.95                     ? "flash"
                         : flash_share > 0.05                     ? "flash+disk"
                                                                  : "disk";
    std::printf("%8llu   %8.0f   %6.2f    %5.3f    %5.3f     %s\n",
                static_cast<unsigned long long>(mib), result.throughput.mean,
                result.throughput.rel_stddev_pct, run.cache_hit_ratio, flash_share, regime);
    SweepRow row;
    row.file_size = mib * kMiB;
    row.throughput = result.throughput;
    row.cache_hit_ratio = run.cache_hit_ratio;
    rows.push_back(row);
  }
  std::printf("\nCSV:\n%s", CsvSweep(rows).c_str());
  std::printf("\nreading: two distinctive steps - the RAM cliff at ~410 MiB (ops drop to\n"
              "flash speed, not disk speed) and the RAM+flash cliff at ~1.4 GiB. A\n"
              "single-number benchmark at any one size sees none of this structure.\n");
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
