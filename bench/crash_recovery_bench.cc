// Crash-recovery sweep: the benchmark dimension the paper says nobody
// measures. Section 2 asks benchmarks to evaluate "reliability in the face
// of failures" — what journaling costs under pressure and what happens
// after a crash — yet every standard benchmark in Table 1 reports steady-
// state throughput on a healthy system.
//
// This bench pulls the plug at several points of a metadata-churning
// postmark run (with periodic fsyncs, the durability pattern mail servers
// actually use) across {ext2, ext3-ordered, ext3-journaled, xfs} and
// reports, per cell:
//   - mount-time recovery latency and its replay I/O (journal replay for
//     ext3/xfs, full fsck metadata scan for ext2),
//   - the data-loss window: ops issued vs ops that survive recovery,
//     dirty pages lost, writes torn in flight,
//   - post-recovery consistency (the rebuilt state must pass fsck).
// Everything is virtual-time deterministic per seed; results go to
// BENCH_recovery.json for PR-over-PR tracking.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/workloads/postmark_like.h"
#include "src/util/ascii.h"

namespace fsbench {
namespace {

struct CellResult {
  std::string fs;
  uint64_t crash_op = 0;
  CrashReport report;
};

MachineFactory CrashMachine(FsKind kind, JournalMode mode) {
  return [kind, mode](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    // Modest cache so writeback pressure is realistic for the churn load.
    config.ram = 160 * kMiB;
    config.journal.mode = mode;
    config.xfs_journal.mode = mode;
    config.seed = seed;
    return std::make_unique<Machine>(kind, config);
  };
}

int Run(const BenchArgs& args) {
  PrintHeader("Crash recovery: replay cost and data-loss window per journal mode",
              "section 2 'reliability in the face of failures' (unmeasured in Table 1)");

  const uint64_t base_ops = args.smoke ? 150 : (args.paper_scale ? 20000 : 4000);
  const std::vector<uint64_t> crash_points{base_ops / 4, base_ops / 2, base_ops};

  PostmarkConfig pm;
  pm.initial_files = args.smoke ? 80 : 400;
  pm.min_size = 512;
  pm.max_size = 32 * kKiB;
  pm.fsync_every = 8;

  struct FsCell {
    const char* name;
    FsKind kind;
    JournalMode mode;
  };
  const FsCell cells[] = {
      {"ext2", FsKind::kExt2, JournalMode::kOrdered},
      {"ext3_ordered", FsKind::kExt3, JournalMode::kOrdered},
      {"ext3_journaled", FsKind::kExt3, JournalMode::kJournaled},
      {"xfs", FsKind::kXfs, JournalMode::kOrdered},
  };

  // The 4x3 (fs, crash point) grid runs host-parallel, row-major slots; the
  // table and JSON render after the barrier, identical for every --jobs.
  std::vector<CellResult> results(4 * crash_points.size());
  const std::vector<std::string> errors = RunCells(results.size(), args.jobs, [&](size_t index) {
    const FsCell& cell = cells[index / crash_points.size()];
    const uint64_t crash_op = crash_points[index % crash_points.size()];
    ExperimentConfig config;
    config.runs = 1;
    config.duration = 30 * 60 * kSecond;  // the crash, not the clock, ends the run
    config.base_seed = args.seed;
    config.crash = CrashScenario{crash_op, 0, /*replay_check=*/true};
    const ExperimentResult result =
        Experiment(config).Run(CrashMachine(cell.kind, cell.mode), MtPostmarkFactory(pm));
    if (!result.AllOk() || !result.runs[0].crash_report.has_value()) {
      throw std::runtime_error("run failed or left no crash report");
    }
    results[index].fs = cell.name;
    results[index].crash_op = crash_op;
    results[index].report = *result.runs[0].crash_report;
  });
  if (ReportFailedCells(errors, [&](size_t index) {
        return std::string(cells[index / crash_points.size()].name) +
               " crash_op=" + std::to_string(crash_points[index % crash_points.size()]);
      })) {
    return 1;
  }

  AsciiTable table;
  table.SetHeader({"fs", "crash op", "survived", "lost ops", "recovery ms", "replay blks",
                   "fsck blks", "torn tx", "dirty lost", "consistent"});
  for (const CellResult& cell_result : results) {
    const CrashReport& report = cell_result.report;
    table.AddRow({cell_result.fs, std::to_string(cell_result.crash_op),
                  std::to_string(report.recovery_watermark),
                  std::to_string(report.ops_issued - report.recovery_watermark),
                  FormatDouble(static_cast<double>(report.recovery_latency) / kMillisecond, 1),
                  std::to_string(report.replay_log_blocks + report.replay_home_blocks),
                  std::to_string(report.fsck_blocks), std::to_string(report.torn_txns),
                  std::to_string(report.dirty_pages_lost),
                  report.recovered_consistent ? "yes" : "NO"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "reading: journal replay costs milliseconds and preserves everything up\n"
      "to the last durable commit (fsync-bounded); ext2 pays a full metadata\n"
      "scan and falls back to its last all-clean instant — usually the mkfs\n"
      "baseline. Data journaling buys its guarantee with visibly more log\n"
      "traffic and replay time (compare the ext3 rows); ordered mode's\n"
      "un-flushed data pages show up in the dirty-lost column instead. This\n"
      "axis is the half steady-state benchmarks don't measure.\n");

  BenchJson json("crash_recovery");
  json.header().Int("seed", args.seed);
  for (const CellResult& cell : results) {
    const CrashReport& r = cell.report;
    json.AddRow().Str("fs", cell.fs).Int("crash_op", cell.crash_op).Int("ops_issued", r.ops_issued)
        .Int("recovery_watermark", r.recovery_watermark)
        .Fixed("recovery_latency_ms", static_cast<double>(r.recovery_latency) / kMillisecond, 3)
        .Int("replay_log_blocks", r.replay_log_blocks)
        .Int("replay_home_blocks", r.replay_home_blocks).Int("fsck_blocks", r.fsck_blocks)
        .Int("durable_txns", r.durable_txns).Int("torn_txns", r.torn_txns)
        .Int("dirty_pages_lost", r.dirty_pages_lost).Int("volatile_blocks", r.volatile_blocks)
        .Bool("consistent", r.recovered_consistent);
  }
  return json.Write("BENCH_recovery.json") ? 0 : 1;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
