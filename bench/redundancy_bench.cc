// Redundancy sweep: what mirrored arrays buy (and striped ones don't) when
// devices degrade and die. Section 2's reliability axis, taken past single-
// device faults: the same fault field is served by different geometries —
// single disk, two-way mirror, two-way stripe, RAID1+0 — in healthy,
// degraded (a device killed mid-run, no spare) and rebuilding (killed, hot
// spare resilvering online) modes, with the background scrub on or off.
//
// Per cell: throughput, p99, failed/absorbed ops, and the array's life
// record — degraded reads, mirror rescues, lost stripes, scrub detections
// (split by whether the scrub beat the first foreground hit), rebuild
// progress and data loss. The reading to look for: a mirror under a fault
// storm keeps serving at full op success (every failed replica read is
// rescued) where the single disk burns ops, and the scrub converts would-be
// foreground faults into background repairs. Everything is virtual-time
// deterministic per seed; results go to BENCH_redundancy.json.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/workloads/postmark_like.h"
#include "src/util/ascii.h"

namespace fsbench {
namespace {

struct GeometryCell {
  const char* name;
  const char* mode;  // healthy | degraded | rebuilding
  ArrayGeometry geometry;
  uint32_t devices;
  uint32_t spares;
  bool kill;   // kill device 0 mid-run
  bool scrub;
};

struct CellResult {
  const GeometryCell* cell = nullptr;
  double rate = 0.0;
  double ops_per_second = 0.0;
  Nanos p99 = 0;
  RunResult run;
};

MachineFactory ArrayMachine(const GeometryCell& cell, double rate, Nanos kill_time,
                            Nanos duration) {
  return [&cell, rate, kill_time, duration](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    // A few MiB of page cache (see fault_sweep_bench): reads must reach the
    // devices or the geometry never matters.
    config.ram = 110 * kMiB;
    config.disk.error_recovery_time = FromMillis(10);  // ERC-capped drives
    config.seed = seed;
    // The block layer owns recovery: transient faults retried, persistent
    // regions remapped. The array rides on top of that per-device policy.
    config.retry = RetryPolicy{6, FromMillis(0.1), 2.0, /*remap=*/true};
    config.faults.transient_rate = std::min(0.5, 5.0 * rate);
    config.faults.persistent_rate = rate;
    config.faults.slow_rate = rate;
    config.faults.slow_multiplier = 8.0;
    config.faults.region_sectors = 256;
    config.faults.spare_regions = 512;
    // Grown defects: the bad regions develop across the run instead of
    // predating it. A region that was healthy when its data was written goes
    // bad underneath — the latent-error regime where the scrub either finds
    // it first (background repair) or a client does (foreground stall).
    // Spread ends at the kill time: every defect has developed while the
    // scrub is still allowed to run (it pauses on degraded/rebuilding sets),
    // so even regions the scan reaches late are detectable.
    config.faults.defect_onset_spread = kill_time;
    if (cell.kill) {
      config.faults.device_kill_time = kill_time;
    }
    // Onset spread, burst window and kill time count from the end of setup
    // (Experiment arms the clock after Prepare): the file-set build takes
    // seconds of virtual time on its own, and on an absolute clock the
    // whole fault schedule would elapse before measurement starts.
    config.faults.deferred_clock = true;
    config.array.geometry = cell.geometry;
    config.array.devices = cell.devices;
    config.array.hot_spares = cell.spares;
    config.array.scrub = cell.scrub;
    // Sorted batches of 6: the elevator serves each burst in one sweep
    // instead of paying a seek (and a broken foreground stream) per region.
    // The cadence is set against the idle-yield floor (every fourth burst
    // proceeds under load): 6 regions / 4x32ms = ~47 regions/s worst case —
    // enough to reach the latent set within the run without making the
    // scrub the dominant tenant (each verify read is a full region off the
    // platter, and a tenth of them eat an ERC-length recovery).
    config.array.scrub_interval = 32 * kMillisecond;
    config.array.scrub_batch = 6;
    // Classic separate-log-device configuration, uniform across every cell
    // (the single-disk baseline gets one too): a journal inside the mirror
    // makes every commit wait on max-over-replicas, and the sweep would
    // measure that coupling instead of how the geometries serve data.
    config.array.journal_device = true;
    // Faster-than-default resilver pace: the written extent must be back in
    // redundancy within the measured window (the throttle knob's other end
    // is what the rebuilding cells' throughput dip shows).
    config.array.rebuild_interval = FromMillis(1.5);
    return std::make_unique<Machine>(FsKind::kExt3, config);
  };
}

int Run(const BenchArgs& args) {
  PrintHeader("Redundancy sweep: geometry x fault rate x scrub x array mode",
              "section 2 reliability axis, extended to multi-device arrays");

  const Nanos duration = BenchDuration(args, 30 * kSecond, 120 * kSecond, 5 * kSecond);
  // Device death at 60% of the window: late enough that the scrub's first
  // pass has raced foreground to the latent regions, early enough that
  // degraded serving and the full rebuild still fit in the measured tail.
  const Nanos kill_time = duration * 3 / 5;
  const std::vector<double> rates = args.smoke ? std::vector<double>{0.0, 0.02}
                                               : std::vector<double>{0.0, 0.01, 0.02};

  PostmarkConfig pm;
  pm.initial_files = args.smoke ? 40 : 150;
  pm.min_size = 64 * kKiB;
  pm.max_size = 512 * kKiB;
  pm.read_bias = 0.95;  // read-heavy: the axis mirrors actually accelerate
  pm.data_fraction = 0.8;
  // Sparse fsyncs: every commit must be durable on *every* replica, so a
  // frequent-fsync load couples the mirror's queues at each commit and
  // measures mostly that. The sweep wants the serving behavior.
  pm.fsync_every = 32;
  // Cold tail per thread: data written at setup that no transaction ever
  // touches again. Without it every allocated region is hot and foreground
  // traffic beats the scrub to every latent defect; with it the scrub has
  // the territory it exists for.
  pm.cold_files = args.smoke ? 15 : 40;

  const GeometryCell cells[] = {
      {"single", "healthy", ArrayGeometry::kSingle, 1, 0, false, false},
      {"mirror2", "healthy", ArrayGeometry::kMirror, 2, 0, false, false},
      {"mirror2+scrub", "healthy", ArrayGeometry::kMirror, 2, 0, false, true},
      {"mirror2+scrub", "degraded", ArrayGeometry::kMirror, 2, 0, true, true},
      {"mirror2+scrub", "rebuilding", ArrayGeometry::kMirror, 2, 1, true, true},
      {"stripe2", "healthy", ArrayGeometry::kStripe, 2, 0, false, false},
      {"raid10+scrub", "rebuilding", ArrayGeometry::kStripeMirror, 4, 1, true, true},
  };

  // The geometry x rate grid runs host-parallel, slots in the original
  // nesting order; table, regression asserts and JSON all run after the
  // barrier so output is byte-identical for every --jobs value.
  const size_t num_cells = sizeof(cells) / sizeof(cells[0]);
  const size_t num_rates = rates.size();
  std::vector<CellResult> results(num_cells * num_rates);
  const std::vector<std::string> errors = RunCells(results.size(), args.jobs, [&](size_t index) {
    const GeometryCell& cell = cells[index / num_rates];
    const double rate = rates[index % num_rates];
    ExperimentConfig config;
    config.runs = args.smoke ? 1 : 2;
    config.duration = duration;
    config.threads = 4;
    config.base_seed = args.seed;
    config.continue_on_error = true;
    config.jobs = args.jobs;
    const ExperimentResult result =
        Experiment(config).Run(ArrayMachine(cell, rate, kill_time, duration),
                               MtPostmarkFactory(pm));
    if (!result.AllOk()) {
      throw std::runtime_error(std::string("error=") + FsStatusName(result.runs[0].error));
    }
    CellResult& r = results[index];
    r.cell = &cell;
    r.rate = rate;
    r.run = result.runs[0];
    r.ops_per_second = result.throughput.mean;
    r.p99 = result.merged_histogram.ApproxPercentile(0.99);
  });
  if (ReportFailedCells(errors, [&](size_t index) {
        const GeometryCell& cell = cells[index / num_rates];
        return std::string(cell.name) + "/" + cell.mode +
               " rate=" + std::to_string(rates[index % num_rates]);
      })) {
    return 1;
  }

  AsciiTable table;
  table.SetHeader({"geometry", "mode", "rate", "ops/s", "p99 ms", "failed", "deg reads",
                   "rescues", "scrub pre", "rebuilt", "loss"});
  for (const CellResult& r : results) {
    const ArraySummary& a = r.run.array;
    table.AddRow({r.cell->name, r.cell->mode, FormatDouble(r.rate, 3),
                  FormatDouble(r.ops_per_second, 1),
                  FormatDouble(static_cast<double>(r.p99) / kMillisecond, 2),
                  std::to_string(r.run.failed_ops), std::to_string(a.degraded_reads),
                  std::to_string(a.mirror_rescues), std::to_string(a.scrub_preempted),
                  std::to_string(a.rebuilds_completed), a.data_loss ? "yes" : "-"});
  }
  std::printf("%s\n", table.Render().c_str());

  // The headline comparisons, asserted here so the bench itself fails when
  // the redundancy story regresses (CI runs this in smoke mode).
  int exit_code = 0;
  for (const CellResult& r : results) {
    if (r.rate == 0.0 || std::string(r.cell->name).rfind("mirror2", 0) != 0) {
      continue;
    }
    // Serving cells must beat the faulted single disk. The rebuilding cell is
    // exempt on throughput by design — resilver interference is the cost the
    // sweep exists to show — but still must finish its rebuild below.
    const bool serving = std::string(r.cell->mode) != "rebuilding";
    for (const CellResult& base : results) {
      if (serving && std::string(base.cell->name) == "single" && base.rate == r.rate &&
          r.ops_per_second <= base.ops_per_second) {
        std::fprintf(stderr,
                     "REGRESSION: %s/%s at rate %g (%.1f ops/s) does not beat the faulted "
                     "single disk (%.1f ops/s)\n",
                     r.cell->name, r.cell->mode, r.rate, r.ops_per_second, base.ops_per_second);
        exit_code = 1;
      }
    }
    if (r.run.failed_ops != 0) {
      std::fprintf(stderr, "REGRESSION: %s/%s rate=%g leaked %llu failed ops past the mirror\n",
                   r.cell->name, r.cell->mode, r.rate,
                   static_cast<unsigned long long>(r.run.failed_ops));
      exit_code = 1;
    }
    if (r.cell->scrub && r.rate >= rates.back() && r.run.array.scrub_preempted == 0) {
      std::fprintf(stderr, "REGRESSION: %s/%s rate=%g scrub never beat foreground to a region\n",
                   r.cell->name, r.cell->mode, r.rate);
      exit_code = 1;
    }
    if (r.cell->spares > 0 && r.run.array.rebuilds_completed == 0) {
      std::fprintf(stderr, "REGRESSION: %s/%s rate=%g rebuild did not complete in the window\n",
                   r.cell->name, r.cell->mode, r.rate);
      exit_code = 1;
    }
  }

  std::printf(
      "reading: at every nonzero rate the mirror beats the faulted single\n"
      "disk — replica reads route to the device that frees up first, and a\n"
      "read that hits a latent region is rescued from the mirror instead of\n"
      "burning the op. The scrub rows convert foreground faults into\n"
      "background repairs ('scrub pre' = regions it reached first); degraded\n"
      "rows show the price of losing a replica mid-run (half the read\n"
      "bandwidth, every fault now unrescuable on that set), and rebuilding\n"
      "rows show the resilver racing foreground traffic to restore\n"
      "redundancy before a second failure — 'loss' stays clear only because\n"
      "it wins.\n");

  const char* path = "BENCH_redundancy.json";
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"schema\": 1,\n  \"bench\": \"redundancy\",\n  \"seed\": %llu,\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(args.seed));
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    const ArraySummary& a = r.run.array;
    std::fprintf(
        out,
        "    {\"geometry\": \"%s\", \"mode\": \"%s\", \"scrub\": %s, \"rate\": %g, "
        "\"ops_per_second\": %.2f, \"p99_ms\": %.3f, \"ops\": %llu, \"failed_ops\": %llu, "
        "\"degraded_reads\": %llu, \"mirror_rescues\": %llu, \"lost_stripes\": %llu, "
        "\"replica_write_errors\": %llu, \"device_failures\": %llu, "
        "\"scrub_regions_scanned\": %llu, \"scrub_detections\": %llu, "
        "\"scrub_preempted\": %llu, \"scrub_repairs\": %llu, \"rebuilds_started\": %llu, "
        "\"rebuilds_completed\": %llu, \"rebuild_regions_copied\": %llu, "
        "\"remapped_regions\": %llu, \"data_loss\": %s, \"remounted_ro\": %s}%s\n",
        r.cell->name, r.cell->mode, r.cell->scrub ? "true" : "false", r.rate, r.ops_per_second,
        static_cast<double>(r.p99) / kMillisecond, static_cast<unsigned long long>(r.run.ops),
        static_cast<unsigned long long>(r.run.failed_ops),
        static_cast<unsigned long long>(a.degraded_reads),
        static_cast<unsigned long long>(a.mirror_rescues),
        static_cast<unsigned long long>(a.lost_stripes),
        static_cast<unsigned long long>(a.replica_write_errors),
        static_cast<unsigned long long>(a.device_failures),
        static_cast<unsigned long long>(a.scrub_regions_scanned),
        static_cast<unsigned long long>(a.scrub_detections),
        static_cast<unsigned long long>(a.scrub_preempted),
        static_cast<unsigned long long>(a.scrub_repairs),
        static_cast<unsigned long long>(a.rebuilds_started),
        static_cast<unsigned long long>(a.rebuilds_completed),
        static_cast<unsigned long long>(a.rebuild_regions_copied),
        static_cast<unsigned long long>(r.run.fault.remapped_regions),
        a.data_loss ? "true" : "false", r.run.fault.remounted_ro ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return exit_code;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
