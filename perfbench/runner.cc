// Host-cost benchmark runner: one workload per process, one host thread.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload (every cell through the public Experiment::Run API)
// until --seconds of host time have passed and reports medians over the
// repetitions. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates untraced and traced repetitions, then runs the
// layer loops, and prints the per-layer metrics. Every run checks the
// simulated results (digest stability, run health, crash recovery) and
// counts each failed check in `failed`. The last stdout line is the JSON
// result; everything above it is the human-readable report.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/host_trace.h"
#include "perfbench/layer_loops.h"
#include "perfbench/sim_digest.h"
#include "perfbench/workloads.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using fsbench::ExperimentResult;
using fsbench::RunResult;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  // Self-test hooks: corrupt one repetition's digest, or one run's recovery
  // verdict, to prove the checks report them.
  std::string inject;
};

struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;
  uint64_t ops = 0;         // simulated ops completed (measured runs)
  uint64_t failed_ops = 0;  // simulated ops that failed
  uint64_t digest = 0;
  std::vector<ExperimentResult> results;  // one per cell
  HostProbe probe;
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Runs every cell of the workload once; the Experiments see only the seed-
// derived configs and the probed factories.
Rep RunRep(const WorkloadSpec& spec, bool trace) {
  Rep rep;
  rep.probe.trace = trace;
  const uint64_t start = NowNs();
  for (const Cell& cell : spec.cells) {
    rep.probe.crash_cell = cell.config.crash.has_value();
    rep.probe.machines_built = 0;
    fsbench::Experiment experiment(cell.config);
    rep.results.push_back(experiment.Run(ProbedMachines(cell.machine, &rep.probe),
                                         ProbedWorkloads(cell.workload, &rep.probe)));
    rep.probe.CloseEngineSpan();
  }
  rep.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  rep.setup_s = static_cast<double>(rep.probe.total_setup_ns()) * 1e-9;
  SimDigest digest;
  for (const ExperimentResult& result : rep.results) {
    for (const RunResult& run : result.runs) {
      rep.ops += run.ops;
      rep.failed_ops += run.failed_ops;
      digest.AddRun(run);
    }
  }
  rep.digest = digest.value();
  return rep;
}

// Result checks on one repetition; returns the number that failed and
// prints each failure.
uint64_t CheckRep(const WorkloadSpec& spec, const Rep& rep, bool inject_recovery) {
  uint64_t failed = 0;
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const Cell& cell = spec.cells[c];
    const auto& runs = rep.results[c].runs;
    for (size_t r = 0; r < runs.size(); ++r) {
      const RunResult& run = runs[r];
      if (!run.ok) {
        std::printf("CHECK FAILED: %s run %zu did not complete: %s\n", cell.label.c_str(), r,
                    fsbench::FsStatusName(run.error));
        ++failed;
        continue;
      }
      // Run health (seen from outside): no run's virtual end passes
      // measure_from + duration + its longest op (+ the per-op framework
      // overhead charged after the op, at most 10% CPU jitter).
      const double bound = static_cast<double>(cell.config.duration) + run.latency.max() +
                           1.1 * static_cast<double>(cell.config.framework_overhead);
      if (static_cast<double>(run.measured_duration) > bound) {
        std::printf("CHECK FAILED: %s run %zu overran its window: %.3f s measured\n",
                    cell.label.c_str(), r, fsbench::ToSeconds(run.measured_duration));
        ++failed;
      }
      if (cell.config.crash.has_value()) {
        const bool consistent = run.crash_report.has_value() &&
                                run.crash_report->recovered_consistent &&
                                !(inject_recovery && r == 0);
        if (!consistent) {
          std::printf("CHECK FAILED: %s run %zu: recovered state is not consistent\n",
                      cell.label.c_str(), r);
          ++failed;
        }
      }
    }
  }
  return failed;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(std::vector<Metric>* out, const std::string& name, double value,
                 const std::string& unit) {
  std::printf("  %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
  if (out != nullptr) {
    out->push_back({name, value, unit});
  }
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Virtual-time results: the model's output, printed and digested, never
// gated (a higher simulated ops/s is not "better").
void PrintVirtual(const WorkloadSpec& spec, const Rep& rep) {
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const ExperimentResult& result = rep.results[c];
    uint64_t ops = 0;
    double seconds = 0.0;
    for (const RunResult& run : result.runs) {
      ops += run.ops;
      seconds += fsbench::ToSeconds(run.measured_duration);
    }
    const fsbench::LatencyHistogram& h = result.merged_histogram;
    std::printf("  [%s] virt_ops_per_s %.3f ops/s, virt_lat_p50_us %.3f us, "
                "virt_lat_p99_us %.3f us, samples %" PRIu64 "\n",
                spec.cells[c].label.c_str(), seconds > 0 ? static_cast<double>(ops) / seconds : 0.0,
                static_cast<double>(h.ApproxPercentile(0.50)) / 1000.0,
                static_cast<double>(h.ApproxPercentile(0.99)) / 1000.0, h.total());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Per-layer report of the traced repetitions; returns the number of failed
// checks (a directly driven crash whose recovery is not consistent).
uint64_t ReportLayers(const WorkloadSpec& spec, const std::vector<Rep>& traced,
                      const std::vector<Rep>& untraced, uint64_t seed, std::vector<Metric>* out) {
  std::vector<double> build, setup, prewarm, run, self, p50, p99, wall_traced, wall_untraced;
  std::array<HostHistogram, fsbench::kOpTypeCount> per_op;
  for (const Rep& rep : traced) {
    const HostProbe& p = rep.probe;
    build.push_back(static_cast<double>(p.machine_build_ns) * 1e-9);
    setup.push_back(static_cast<double>(p.setup_ns) * 1e-9);
    prewarm.push_back(static_cast<double>(p.prewarm_ns) * 1e-9);
    run.push_back(static_cast<double>(p.engine_run_ns) * 1e-9);
    self.push_back(static_cast<double>(p.engine_run_ns - std::min(p.engine_run_ns, p.step_ns)) *
                   1e-9);
    p50.push_back(p.step_all.Quantile(0.50));
    p99.push_back(p.step_all.Quantile(0.99));
    wall_traced.push_back(rep.wall_s);
    for (size_t t = 0; t < per_op.size(); ++t) {
      per_op[t].Merge(p.step_hist[t]);
    }
  }
  for (const Rep& rep : untraced) {
    wall_untraced.push_back(rep.wall_s);
  }
  std::printf("per-layer host time (median of %zu traced repetitions):\n", traced.size());
  PrintMetric(out, "machine.build_s", Median(build), "s");
  PrintMetric(out, "workload.setup_s", Median(setup), "s");
  PrintMetric(out, "workload.prewarm_s", Median(prewarm), "s");
  PrintMetric(out, "engine.run_s", Median(run), "s");
  PrintMetric(out, "engine.self_s", Median(self), "s");
  PrintMetric(out, "step.host_ns_p50", Median(p50), "ns");
  PrintMetric(out, "step.host_ns_p99", Median(p99), "ns");
  PrintMetric(out, "step.count", static_cast<double>(traced.front().probe.step_all.count()),
              "count");
  std::printf("per-op-type step host time (all traced repetitions pooled):\n");
  for (size_t t = 0; t < per_op.size(); ++t) {
    const HostHistogram& h = per_op[t];
    if (h.count() == 0) {
      continue;
    }
    const std::string op = fsbench::OpTypeName(static_cast<fsbench::OpType>(t));
    PrintMetric(nullptr, "step." + op + ".host_ns_p50", h.Quantile(0.50), "ns");
    PrintMetric(nullptr, "step." + op + ".host_ns_p99", h.Quantile(0.99), "ns");
    PrintMetric(nullptr, "step." + op + ".count", static_cast<double>(h.count()), "count");
  }

  // Counters of the first traced repetition (deterministic per seed).
  const LayerCounters& k = traced.front().probe.counters;
  const auto count = [out](const char* name, uint64_t value) {
    PrintMetric(out, name, static_cast<double>(value), "count");
  };
  std::printf("per-layer counters (one repetition, %" PRIu64 " measured machines):\n",
              k.machines);
  count("page_cache.hits", k.cache.hits);
  count("page_cache.misses", k.cache.misses);
  count("page_cache.insertions", k.cache.insertions);
  count("page_cache.evictions", k.cache.evictions);
  PrintMetric(out, "page_cache.hit_ratio", Ratio(k.cache.hits, k.cache.hits + k.cache.misses),
              "ratio");
  count("vfs.demand_requests", k.vfs.demand_requests);
  count("vfs.readahead_pages", k.vfs.readahead_pages);
  count("vfs.writeback_pages", k.vfs.writeback_pages);
  count("sched.sync_requests", k.sched.sync_requests);
  count("sched.async_requests", k.sched.async_requests);
  count("sched.max_queue_depth", k.sched.max_queue_depth);
  PrintMetric(out, "sched.sync_queue_delay_s",
              fsbench::ToSeconds(k.sched.total_sync_queue_delay), "virt_s");
  count("sched.throttle_stalls", k.sched.async_throttle_stalls);
  count("sched.retries", k.sched.retries);
  count("device.reads", k.disk.reads);
  count("device.writes", k.disk.writes);
  count("device.seeks", k.disk.seeks);
  PrintMetric(out, "device.service_s", fsbench::ToSeconds(k.disk.total_service_time), "virt_s");
  count("device.gc_page_moves", k.disk.gc_page_moves);
  // Write amplification over its base, host pages written (4 KiB = 8
  // sectors); 0 when nothing was written.
  const uint64_t host_pages = k.disk.sectors_written / 8;
  PrintMetric(out, "device.write_amp", Ratio(host_pages + k.disk.gc_page_moves, host_pages),
              "ratio");
  count("device.write_amp_base_pages", host_pages);
  PrintMetric(out, "alloc.goal_hit_ratio", Ratio(k.alloc.goal_hits, k.alloc.allocations),
              "ratio");
  count("journal.commits", k.journal.commits);
  count("journal.blocks_logged", k.journal.blocks_logged);
  count("txn_log.commits", k.txn_log.commits);
  PrintMetric(out, "txn_log.log_stall_s", fsbench::ToSeconds(k.txn_log.stall_time), "virt_s");
  count("block_array.degraded_reads", k.degraded_reads);

  std::printf("layer loops (fixed traffic shapes, see README.md):\n");
  for (const LoopResult& loop : RunLayerLoops(seed)) {
    PrintMetric(out, loop.name, loop.ns_per_call, "ns");
    std::printf("      shape: %s\n", loop.shape.c_str());
  }
  uint64_t failed = 0;
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    if (!spec.cells[c].config.crash.has_value()) {
      continue;
    }
    const RecoveryPhases phases = TimeRecoveryPhases(spec.cells[c]);
    failed += phases.consistent ? 0 : 1;
    const fsbench::RunResult& run0 = untraced.front().results[c].runs.front();
    std::printf("crash recovery phases (run 0, called directly):\n");
    PrintMetric(nullptr, "recovery.crash_s", phases.crash_s, "s");
    PrintMetric(nullptr, "recovery.replay_s", phases.replay_s, "s");
    PrintMetric(nullptr, "recovery.fsck_s", phases.fsck_s, "s");
    std::printf("  recovered_consistent %s; reproduces the experiment's run-0 watermark: %s\n",
                phases.consistent ? "yes" : "NO",
                run0.crash_report.has_value() &&
                        phases.watermark == run0.crash_report->recovery_watermark
                    ? "yes"
                    : "no");
  }
  PrintMetric(out, "trace.overhead", Median(wall_traced) / Median(wall_untraced), "ratio");
  return failed;
}

int Main(const Args& args) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The seed generates the inputs; the simulator sees only the derived
  // experiment seed (and from it every run's jitter and op stream).
  uint64_t state = args.seed;
  const uint64_t base_seed = fsbench::SplitMix64(state);
  const WorkloadSpec seeded = MakeWorkload(args.workload, base_seed, args.tiny);
  std::printf("workload %s  seed %" PRIu64 " -> experiment base_seed %" PRIu64
              "  trace %d  seconds %.0f\n",
              seeded.name.c_str(), args.seed, base_seed, args.trace ? 1 : 0, args.seconds);

  // Every repetition, traced or not, is checked as it completes: it must
  // reproduce the first one's digest and every run must be healthy. Only
  // the first repetition keeps its results (for the report), so memory does
  // not grow with the repetition count.
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  uint64_t failed_checks = 0;
  uint64_t attempted = 0;
  uint64_t failed_ops = 0;
  const auto account = [&](Rep rep, std::vector<Rep>* into) {
    const size_t index = untraced.size() + traced.size();
    if (args.inject == "digest" && index == 1) {
      rep.digest ^= 1;
    }
    const uint64_t reference = index == 0 ? rep.digest : untraced.front().digest;
    if (rep.digest != reference) {
      std::printf("CHECK FAILED: repetition %zu%s digest %016" PRIx64 " != %016" PRIx64 "\n",
                  index, into == &traced ? " (traced)" : "", rep.digest, reference);
      ++failed_checks;
    }
    failed_checks += CheckRep(seeded, rep, args.inject == "recovery" && index == 0);
    attempted += rep.ops + rep.failed_ops;
    failed_ops += rep.failed_ops;
    if (index != 0) {
      rep.results.clear();
    }
    into->push_back(std::move(rep));
  };
  const uint64_t start = NowNs();
  do {
    account(RunRep(seeded, false), &untraced);
    if (args.trace) {
      account(RunRep(seeded, true), &traced);
    }
  } while (static_cast<double>(NowNs() - start) * 1e-9 < args.seconds || untraced.size() < 3);

  const uint64_t reference = untraced.front().digest;
  std::printf("sim_digest %016" PRIx64 " (%zu untraced, %zu traced repetitions)\n", reference,
              untraced.size(), traced.size());
  PrintVirtual(seeded, untraced.front());

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> wall, setup, rate;
    for (const Rep& rep : untraced) {
      wall.push_back(rep.wall_s);
      setup.push_back(rep.setup_s);
      rate.push_back(static_cast<double>(rep.ops) / (rep.wall_s - rep.setup_s));
    }
    std::printf("end-to-end (median of %zu repetitions; wall_s min %.4f max %.4f):\n",
                untraced.size(), *std::min_element(wall.begin(), wall.end()),
                *std::max_element(wall.begin(), wall.end()));
    PrintMetric(&metrics, "wall_s", Median(wall), "s");
    PrintMetric(&metrics, "setup_s", Median(setup), "s");
    PrintMetric(&metrics, "sim_ops_per_host_s", Median(rate), "ops/s");
    PrintMetric(&metrics, "peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    failed_checks += ReportLayers(seeded, traced, untraced, args.seed, &metrics);
  }
  const uint64_t failed = failed_ops + failed_checks;
  PrintMetric(nullptr, "failed_op_ratio", Ratio(failed, attempted), "ratio");
  std::fflush(stdout);
  PrintJson(failed_checks == 0, std::max<uint64_t>(attempted, 1), failed, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--tiny") {
      args->tiny = value == "1";
    } else if (key == "--inject" && (value == "digest" || value == "recovery")) {
      args->inject = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--tiny 1] [--inject digest|recovery]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Main(args);
}
