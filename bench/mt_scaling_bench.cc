// Thread-scaling sweep over the event-driven multi-thread engine.
//
// The paper's central complaint is that single-number benchmark results hide
// queueing and contention; real file-system benchmarks are multi-threaded
// (Filebench's nthreads, Postmark pools, SPECsfs load generators). This
// bench sweeps simulated thread count over two regimes and reports the
// whole scaling curve:
//   - disk-bound postmark (working set >> page cache): threads contend on
//     the shared device timeline, so aggregate throughput scales
//     sub-linearly and per-op latency inflates with queueing delay;
//   - cache-resident metadata mix: no device contention, so the aggregate
//     scales almost linearly and latency stays flat;
//   - the same disk-bound postmark on the multi-queue SSD (device axis): a
//     fixed total file population split across the threads, so added
//     threads fill idle flash channels instead of lengthening one head's
//     queue and the aggregate keeps climbing.
// Results are virtual-time quantities — deterministic per seed — written to
// BENCH_mt.json so the contention model's trajectory is tracked PR-over-PR.
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/workloads/metadata_mix.h"
#include "src/core/workloads/postmark_like.h"
#include "src/util/ascii.h"

namespace fsbench {
namespace {

struct ScalePoint {
  const char* workload;
  int threads;
  double agg_ops_per_sec;
  double speedup_vs_1;
  double mean_latency_us;
  double sync_queue_delay_ms;  // total cross-thread device queueing delay
  size_t max_queue_depth;
};

// Disk-bound regime: the paper-testbed machine with RAM cut to ~120 MiB so
// an N-thread postmark working set (N x ~7 MiB) spills out of the page
// cache as the thread count grows.
MachineFactory DiskBoundMachine() {
  return [](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.ram = 120 * kMiB;
    config.seed = seed;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

// Same small-cache testbed with the flash device swapped in (the device
// axis): SSD devices always run the per-channel multi-queue scheduler.
MachineFactory DiskBoundSsdMachine() {
  return [](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.ram = 120 * kMiB;
    config.device = DeviceKind::kSsd;
    config.seed = seed;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

ScalePoint RunPoint(const char* name, const MachineFactory& machine,
                    const ThreadedWorkloadFactory& workload, int threads, int runs,
                    Nanos duration, uint64_t seed, int jobs) {
  ExperimentConfig config;
  config.runs = runs;
  config.duration = duration;
  config.threads = threads;
  config.base_seed = seed;
  config.jobs = jobs;
  Experiment experiment(config);
  const ExperimentResult result = experiment.Run(machine, workload);
  if (!result.AllOk()) {
    throw std::runtime_error("failing runs");
  }

  ScalePoint point;
  point.workload = name;
  point.threads = threads;
  point.agg_ops_per_sec = result.throughput.mean;
  point.speedup_vs_1 = 0.0;  // filled by the caller
  point.mean_latency_us = result.mean_latency_ns.mean / 1000.0;
  const RunResult& rep = result.representative();
  point.sync_queue_delay_ms =
      static_cast<double>(rep.scheduler_stats.total_sync_queue_delay) / kMillisecond;
  point.max_queue_depth = rep.scheduler_stats.max_queue_depth;
  return point;
}

int Run(const BenchArgs& args) {
  PrintHeader("Thread scaling: event-driven engine, outstanding-I/O contention",
              "multi-threaded workloads discussion (section 2; Table 1 'scaling' dimension)");

  const Nanos duration = BenchDuration(args, 8 * kSecond, 20 * kSecond, kSecond);
  const int runs = args.smoke ? 1 : 3;
  const std::vector<int> thread_counts{1, 2, 4, 8, 16};

  // Per-thread working set ~29 MiB against a 16-24 MiB page cache: disk-
  // bound from N=1, so the curve isolates device queueing rather than the
  // cache-to-disk regime cliff (fig1_filesize_sweep covers that boundary).
  PostmarkConfig pm;
  pm.initial_files = 900;
  pm.min_size = 512;
  pm.max_size = 64 * kKiB;

  MetadataMixConfig mm;
  mm.dirs = 8;
  mm.files_per_dir = 64;

  struct Sweep {
    const char* name;
    MachineFactory machine;
    // Thread count -> workload: the SSD sweep divides one fixed file
    // population across the threads so the aggregate working set (and thus
    // the cache hit rate) is the same at every point — the curve then
    // isolates the channel parallelism, not a shifting cache regime.
    std::function<ThreadedWorkloadFactory(int)> workload;
  };
  PostmarkConfig ssd_pm = pm;
  const Sweep sweeps[] = {
      {"postmark_disk", DiskBoundMachine(),
       [pm](int) { return MtPostmarkFactory(pm); }},
      {"metadata_cached", PaperMachine(),
       [mm](int) { return MtMetadataMixFactory(mm); }},
      {"postmark_ssd", DiskBoundSsdMachine(),
       [ssd_pm](int threads) mutable {
         ssd_pm.initial_files = 1600 / threads;
         return MtPostmarkFactory(ssd_pm);
       }},
  };
  constexpr size_t kSweeps = 3;

  // All (workload, thread-count) cells run host-parallel; each writes slot
  // (s * points + t), so table, speedups and JSON are identical for every
  // --jobs value. The speedup column needs the N=1 cell of each sweep, so
  // it is derived after the barrier rather than as cells complete.
  const size_t cells_per_sweep = thread_counts.size();
  std::vector<ScalePoint> points(kSweeps * cells_per_sweep);
  const std::vector<std::string> errors = RunCells(points.size(), args.jobs, [&](size_t index) {
    const Sweep& sweep = sweeps[index / cells_per_sweep];
    const int threads = thread_counts[index % cells_per_sweep];
    points[index] = RunPoint(sweep.name, sweep.machine, sweep.workload(threads), threads,
                             runs, duration, args.seed, args.jobs);
  });
  if (ReportFailedCells(errors, [&](size_t index) {
        return std::string(sweeps[index / cells_per_sweep].name) +
               " threads=" + std::to_string(thread_counts[index % cells_per_sweep]);
      })) {
    return 1;
  }

  AsciiTable table;
  table.SetHeader({"workload", "threads", "agg ops/s", "speedup", "latency us", "queue depth",
                   "queue delay ms"});
  for (size_t s = 0; s < kSweeps; ++s) {
    const double base = points[s * cells_per_sweep].agg_ops_per_sec;
    for (size_t t = 0; t < cells_per_sweep; ++t) {
      ScalePoint& point = points[s * cells_per_sweep + t];
      point.speedup_vs_1 = base > 0.0 ? point.agg_ops_per_sec / base : 0.0;
      table.AddRow({point.workload, std::to_string(point.threads),
                    FormatDouble(point.agg_ops_per_sec, 0), FormatDouble(point.speedup_vs_1, 2),
                    FormatDouble(point.mean_latency_us, 1), std::to_string(point.max_queue_depth),
                    FormatDouble(point.sync_queue_delay_ms, 1)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "reading: disk-bound threads queue against one device timeline, so the\n"
      "aggregate scales sub-linearly while queue depth and per-op latency grow;\n"
      "the cache-resident mix never touches the device and scales ~linearly.\n"
      "On the multi-queue SSD the same device-bound postmark keeps scaling:\n"
      "added threads land on idle channels instead of one head's queue.\n"
      "A single-thread-count result reports none of these effects.\n");

  BenchJson json("mt_scaling");
  json.header().Int("seed", args.seed);
  for (const ScalePoint& p : points) {
    json.AddRow().Str("workload", p.workload).Int("threads", p.threads)
        .Fixed("agg_ops_per_sec", p.agg_ops_per_sec, 3).Fixed("speedup_vs_1", p.speedup_vs_1, 4)
        .Fixed("mean_latency_us", p.mean_latency_us, 3).Int("max_queue_depth", p.max_queue_depth)
        .Fixed("sync_queue_delay_ms", p.sync_queue_delay_ms, 3);
  }
  return json.Write("BENCH_mt.json") ? 0 : 1;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
