// Device-scaling sweep for the multi-queue SSD model: does concurrency win?
//
// The paper's Table 1 lists device type as a benchmark dimension that
// single-number results flatten away. This bench measures the dimension
// directly, in two parts, and writes BENCH_ssd.json:
//
//   - block level: a closed-loop pool of QD workers issuing random 4 KiB
//     reads straight at an SsdModel behind the multi-queue scheduler,
//     swept over channels x queue depth. Aggregate IOPS must rise with
//     queue depth until the channel count saturates it — the defining
//     curve of an NVMe-class device ("ch8_qd16" names a cell);
//
//   - file-system level: the same fixed-total postmark population (1600
//     files split across the threads, so the cache regime never shifts)
//     swept over thread count on an HDD machine and an 8-channel SSD
//     machine. The HDD is saturated by one thread — adding fifteen more
//     buys nothing (and per-thread working sets that grow with the thread
//     count make it outright collapse: BENCH_mt's postmark_disk rows) —
//     while the SSD keeps climbing — the headline contrast the
//     multi-queue model exists to show.
//
// All quantities are virtual-time and deterministic per (config, seed);
// cells run host-parallel via RunCells and are byte-identical for every
// --jobs value.
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/cell_seed.h"
#include "src/core/workloads/postmark_like.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/ssd_model.h"
#include "src/util/ascii.h"
#include "src/util/rng.h"

namespace fsbench {
namespace {

// ---------------------------------------------------------------------------
// Part A: block-level channels x queue-depth sweep.

struct BlockPoint {
  std::string config;  // "ch8_qd16" — the cell's identity for benchdiff
  uint32_t channels;
  uint32_t queue_depth;
  double kiops;
  double mean_latency_us;
};

BlockPoint RunBlockPoint(uint32_t channels, uint32_t queue_depth, Nanos duration,
                         uint64_t seed) {
  SsdParams params;
  params.channels = channels;
  SsdModel device(params);
  IoScheduler scheduler(&device, SchedulerKind::kMultiQueue);

  // Closed loop: `queue_depth` workers, each with its own virtual-time
  // cursor, issue random 4 KiB reads back-to-back. The next request always
  // comes from the worker whose cursor is earliest (lowest index breaks
  // ties), which is exactly how N independent threads would interleave.
  const uint64_t span_pages = params.capacity / params.page_bytes;
  const uint32_t sectors = device.sectors_per_page();
  Rng rng(seed);
  std::vector<Nanos> cursors(queue_depth, 0);
  uint64_t ops = 0;
  Nanos total_latency = 0;
  for (;;) {
    size_t worker = 0;
    for (size_t w = 1; w < cursors.size(); ++w) {
      if (cursors[w] < cursors[worker]) {
        worker = w;
      }
    }
    const Nanos now = cursors[worker];
    if (now >= duration) {
      break;
    }
    const IoRequest req{IoKind::kRead, rng.NextBelow(span_pages) * sectors, sectors};
    const std::optional<Nanos> done = scheduler.SubmitSync(req, now);
    cursors[worker] = *done;  // the flash device never faults here
    total_latency += *done - now;
    ++ops;
  }

  BlockPoint point;
  point.config = "ch" + std::to_string(channels) + "_qd" + std::to_string(queue_depth);
  point.channels = channels;
  point.queue_depth = queue_depth;
  point.kiops = static_cast<double>(ops) / (static_cast<double>(duration) / kSecond) / 1000.0;
  point.mean_latency_us =
      ops > 0 ? static_cast<double>(total_latency) / static_cast<double>(ops) / 1000.0 : 0.0;
  return point;
}

// ---------------------------------------------------------------------------
// Part B: file-system-level postmark, threads x device kind.

struct FsPoint {
  const char* device;  // "hdd" | "ssd"
  int threads;
  double agg_ops_per_sec;
  double speedup_vs_1;
  double sync_queue_delay_ms;
};

MachineFactory SmallCacheMachine(DeviceKind kind) {
  return [kind](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.ram = 120 * kMiB;
    config.device = kind;
    config.seed = seed;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

FsPoint RunFsPoint(const char* device, DeviceKind kind, int threads, int runs,
                   Nanos duration, uint64_t seed, int jobs) {
  ExperimentConfig config;
  config.runs = runs;
  config.duration = duration;
  config.threads = threads;
  config.base_seed = seed;
  config.jobs = jobs;

  // Fixed total population split across the threads: the aggregate working
  // set (~50 MiB against a ~16 MiB cache) is identical at every thread
  // count, so the curve isolates the device, not a moving cache regime.
  PostmarkConfig pm;
  pm.initial_files = 1600 / threads;
  pm.min_size = 512;
  pm.max_size = 64 * kKiB;

  const ExperimentResult result =
      Experiment(config).Run(SmallCacheMachine(kind), MtPostmarkFactory(pm));
  if (!result.AllOk()) {
    throw std::runtime_error("failing runs");
  }

  FsPoint point;
  point.device = device;
  point.threads = threads;
  point.agg_ops_per_sec = result.throughput.mean;
  point.speedup_vs_1 = 0.0;  // filled after the barrier
  point.sync_queue_delay_ms =
      static_cast<double>(result.representative().scheduler_stats.total_sync_queue_delay) /
      kMillisecond;
  return point;
}

int Run(const BenchArgs& args) {
  PrintHeader("Device scaling: multi-queue SSD vs single-spindle HDD",
              "device-type benchmark dimension (Table 1); multi-queue concurrency");

  const Nanos block_duration = BenchDuration(args, 2 * kSecond, 4 * kSecond, kSecond / 4);
  const Nanos fs_duration = BenchDuration(args, 8 * kSecond, 20 * kSecond, kSecond);
  const int runs = args.smoke ? 1 : 3;

  const std::vector<uint32_t> channel_counts{1, 2, 4, 8};
  const std::vector<uint32_t> queue_depths{1, 4, 16, 64};
  const std::vector<int> thread_counts{1, 2, 4, 8, 16};
  const DeviceKind device_kinds[] = {DeviceKind::kHdd, DeviceKind::kSsd};
  const char* device_names[] = {"hdd", "ssd"};

  // One flat cell index space: part A first, then part B. Every cell writes
  // its own slot, so the assembled tables and JSON are identical for every
  // --jobs value.
  const size_t block_cells = channel_counts.size() * queue_depths.size();
  const size_t fs_cells = 2 * thread_counts.size();
  std::vector<BlockPoint> block_points(block_cells);
  std::vector<FsPoint> fs_points(fs_cells);
  const size_t num_cells = block_cells + fs_cells;
  const std::vector<std::string> errors = RunCells(num_cells, args.jobs, [&](size_t index) {
    if (index < block_cells) {
      const uint32_t channels = channel_counts[index / queue_depths.size()];
      const uint32_t qd = queue_depths[index % queue_depths.size()];
      block_points[index] =
          RunBlockPoint(channels, qd, block_duration, DeriveCellSeed(args.seed, channels, qd, 0));
    } else {
      const size_t fs_index = index - block_cells;
      const size_t d = fs_index / thread_counts.size();
      const size_t t = fs_index % thread_counts.size();
      fs_points[fs_index] =
          RunFsPoint(device_names[d], device_kinds[d], thread_counts[t], runs, fs_duration,
                     DeriveCellSeed(args.seed, 100 + d, t, 0), args.jobs);
    }
  });
  if (ReportFailedCells(errors, [&](size_t index) {
        if (index < block_cells) {
          return "ch" + std::to_string(channel_counts[index / queue_depths.size()]) + "_qd" +
                 std::to_string(queue_depths[index % queue_depths.size()]);
        }
        const size_t fs_index = index - block_cells;
        return std::string(device_names[fs_index / thread_counts.size()]) +
               " threads=" + std::to_string(thread_counts[fs_index % thread_counts.size()]);
      })) {
    return 1;
  }

  AsciiTable block_table;
  block_table.SetHeader({"config", "channels", "queue depth", "kIOPS", "latency us"});
  for (const BlockPoint& p : block_points) {
    block_table.AddRow({p.config, std::to_string(p.channels), std::to_string(p.queue_depth),
                        FormatDouble(p.kiops, 1), FormatDouble(p.mean_latency_us, 1)});
  }
  std::printf("%s\n", block_table.Render().c_str());
  std::printf(
      "reading: at qd=1 every channel count serves one request at a time, so\n"
      "IOPS are flat; raising queue depth fills idle channels until the\n"
      "channel count caps the parallelism — the multi-queue win, and the\n"
      "reason a single-queue-depth number cannot characterise this device.\n\n");

  AsciiTable fs_table;
  fs_table.SetHeader({"device", "threads", "agg ops/s", "speedup", "queue delay ms"});
  for (size_t d = 0; d < 2; ++d) {
    const double base = fs_points[d * thread_counts.size()].agg_ops_per_sec;
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      FsPoint& p = fs_points[d * thread_counts.size() + t];
      p.speedup_vs_1 = base > 0.0 ? p.agg_ops_per_sec / base : 0.0;
      fs_table.AddRow({p.device, std::to_string(p.threads), FormatDouble(p.agg_ops_per_sec, 0),
                       FormatDouble(p.speedup_vs_1, 2), FormatDouble(p.sync_queue_delay_ms, 1)});
    }
  }
  std::printf("%s\n", fs_table.Render().c_str());
  std::printf(
      "reading: the identical device-bound postmark goes nowhere on the HDD\n"
      "(one head is saturated by one thread; fifteen more just queue) and\n"
      "scales on the 8-channel SSD (threads land on idle channels). Device\n"
      "type changes the shape of the scaling curve — a benchmark that fixes\n"
      "it reports neither behaviour.\n");

  const char* path = "BENCH_ssd.json";
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": 1,\n  \"bench\": \"device_scaling\",\n  \"seed\": %llu,\n"
                    "  \"results\": [\n",
               static_cast<unsigned long long>(args.seed));
  const size_t total = block_points.size() + fs_points.size();
  size_t emitted = 0;
  for (const BlockPoint& p : block_points) {
    ++emitted;
    std::fprintf(out,
                 "    {\"phase\": \"block\", \"config\": \"%s\", \"channels\": %u, "
                 "\"queue_depth\": %u, \"kiops\": %.3f, \"mean_latency_us\": %.3f}%s\n",
                 p.config.c_str(), p.channels, p.queue_depth, p.kiops, p.mean_latency_us,
                 emitted < total ? "," : "");
  }
  for (const FsPoint& p : fs_points) {
    ++emitted;
    std::fprintf(out,
                 "    {\"phase\": \"postmark\", \"config\": \"%s\", \"threads\": %d, "
                 "\"agg_ops_per_sec\": %.3f, \"speedup_vs_1\": %.4f, "
                 "\"sync_queue_delay_ms\": %.3f}%s\n",
                 p.device, p.threads, p.agg_ops_per_sec, p.speedup_vs_1,
                 p.sync_queue_delay_ms, emitted < total ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
