// Figure 1: Ext2 throughput and its relative standard deviation under a
// one-thread random-read workload, file size swept 64 MiB -> 1024 MiB in
// 64 MiB steps, 10 runs per point, steady state (the paper measures the
// last minute of a 20-minute run; we prewarm to the steady cache state and
// measure directly, which is equivalent and documented in EXPERIMENTS.md).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/cell_seed.h"
#include "src/core/report.h"

namespace fsbench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 1: Ext2 random-read throughput vs file size",
              "Fig. 1 (paper: plateau ~9.7k ops/s, cliff at 384->448 MiB, "
              "tail 1019..162 ops/s, stddev spikes in the transition)");

  ExperimentConfig config;
  // Smoke: a coarse 4-point sweep with 3 runs per point still exercises the
  // plateau, the cliff and the tail; the full grid is for real figures.
  config.runs = args.smoke ? 3 : 10;
  config.duration = BenchDuration(args, 10 * kSecond, 60 * kSecond, 2 * kSecond);
  config.prewarm = true;
  config.jobs = args.jobs;
  const Bytes step = args.smoke ? 320 : 64;

  std::vector<Bytes> sizes_mib;
  for (Bytes mib = 64; mib <= 1024; mib += step) {
    sizes_mib.push_back(mib);
  }

  // Points run host-parallel; each writes its own slot, so the table is
  // identical for every --jobs value (printing happens after the barrier).
  std::vector<ExperimentResult> cells(sizes_mib.size());
  const std::vector<std::string> errors = RunCells(sizes_mib.size(), args.jobs, [&](size_t i) {
    const Bytes mib = sizes_mib[i];
    ExperimentConfig cell_config = config;
    // Fresh jitter draws per point, keyed by the (stable) size parameter so
    // smoke's coarse grid and the full grid agree on shared points.
    cell_config.base_seed = DeriveCellSeed(args.seed, mib, 0, 0);
    cells[i] = Experiment(cell_config).Run(PaperMachine(), RandomReadOf(mib * kMiB));
  });
  if (ReportFailedCells(errors, [&](size_t i) { return std::to_string(sizes_mib[i]) + " MiB"; })) {
    return 1;
  }

  std::vector<SweepRow> rows;
  for (size_t i = 0; i < sizes_mib.size(); ++i) {
    const ExperimentResult& result = cells[i];
    if (!result.AllOk()) {
      std::printf("  %4llu MiB: FAILED (%s)\n",
                  static_cast<unsigned long long>(sizes_mib[i]),
                  FsStatusName(result.runs.empty() ? FsStatus::kIoError
                                                   : result.runs.front().error));
      return 1;
    }
    SweepRow row;
    row.file_size = sizes_mib[i] * kMiB;
    row.throughput = result.throughput;
    row.cache_hit_ratio = result.representative().cache_hit_ratio;
    rows.push_back(row);
  }
  std::printf("%s\n", RenderSweepTable(rows).c_str());
  std::printf("CSV:\n%s\n", CsvSweep(rows).c_str());
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
