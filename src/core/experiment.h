// Multi-run experiment harness — the paper's methodological core.
//
// An Experiment runs a workload N times, each on a freshly built Machine
// whose per-run jitter is seeded independently, and aggregates per-run
// throughput into a Summary with confidence intervals. Per-run results keep
// the full multi-dimensional record — latency histogram, throughput
// timeline, histogram timeline, cache/disk counters — so reports can show
// the whole graph rather than a single number.
//
// Each run drives `config.threads` simulated workload threads through the
// event-driven SimEngine: per-thread clock cursors interleaved smallest-
// local-time-first over the shared device, so multi-threaded configurations
// expose queueing and contention while threads=1 reproduces the classic
// single-threaded loop exactly (see src/core/sim_engine.h).
//
// The optional per-op framework overhead models Filebench's own cost: the
// paper's throughput numbers include it while its latency histograms do
// not, and fsbench reproduces that split (overhead advances the clock
// after the operation's latency has been recorded).
#ifndef SRC_CORE_EXPERIMENT_H_
#define SRC_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/stats.h"
#include "src/core/workload.h"
#include "src/sim/machine.h"
#include "src/sim/recovery.h"

namespace fsbench {

using MachineFactory = std::function<std::unique_ptr<Machine>(uint64_t seed)>;

// Crash-scenario mode: pull the plug mid-run and measure what recovery
// costs and saves (see src/sim/recovery.h).
struct CrashScenario {
  // Crash after this many dispatched operations; 0 = use at_time instead.
  uint64_t at_op = 0;
  // Crash at this offset into the measured window (when at_op == 0).
  Nanos at_time = 0;
  // Rebuild the recovered state — a fresh machine replaying the surviving
  // operation prefix — and fsck it (fills CrashReport::recovered_consistent).
  bool replay_check = true;
};

struct ExperimentConfig {
  int runs = 10;
  Nanos duration = 60 * kSecond;  // measured virtual duration per run
  Nanos warmup = 0;               // excluded from metrics, after Setup/Prewarm
  // Per-op benchmark-framework overhead (see header comment).
  Nanos framework_overhead = 99 * kMicrosecond;
  Nanos timeline_interval = 10 * kSecond;
  Nanos histogram_slice = 20 * kSecond;
  bool prewarm = false;
  uint64_t base_seed = 1;
  // Safety cap on operations per run, totalled across threads (0 = none).
  uint64_t max_ops = 0;
  // Simulated workload threads per run (engine stays single-host-threaded).
  int threads = 1;
  // When set, every run crashes and recovers; RunResult::crash_report holds
  // the outcome (runs count as ok).
  std::optional<CrashScenario> crash;
  // Device-fault runs: keep going past kIoError ops (counted in
  // RunResult::failed_ops) and retire threads hit by kReadOnly instead of
  // failing the run (see SimEngineConfig::continue_on_error).
  bool continue_on_error = false;
  // Host threads for the run repetitions (src/core/parallel_runner.h):
  // 1 = serial (the default), 0 = every host core, N = at most N. Runs are
  // placed into result slots by run index, so the ExperimentResult is
  // byte-identical for every jobs value — host parallelism buys wall time
  // only and no virtual-time quantity can observe it.
  int jobs = 1;
};

// Flattened device-fault / degraded-mode record of one run, aggregated from
// the disk, fault plan, scheduler, file system and VFS after the run ends.
struct FaultSummary {
  uint64_t device_errors = 0;      // failed device accesses (all attempts)
  uint64_t transient_faults = 0;   // fault-plan transient verdicts
  uint64_t persistent_faults = 0;  // fault-plan persistent (bad-region) verdicts
  uint64_t slow_ios = 0;           // accesses hit by a slow-I/O fault
  uint64_t retries = 0;            // block-layer re-attempts
  Nanos retry_backoff_time = 0;    // virtual time spent backing off
  uint64_t remapped_regions = 0;   // regions moved into the spare pool
  uint64_t spare_regions_left = 0;
  uint64_t sync_io_failures = 0;   // sync requests that exhausted the policy
  uint64_t async_io_failures = 0;  // async requests that exhausted the policy
  uint64_t meta_io_failures = 0;   // metadata/log write failures seen by the fs
  bool journal_aborted = false;
  bool remounted_ro = false;
  uint64_t degraded_reads = 0;     // reads served while remounted read-only
  uint64_t readonly_rejects = 0;   // mutations refused with kReadOnly
  uint64_t failed_ops = 0;         // workload ops absorbed by continue_on_error

  bool operator==(const FaultSummary&) const = default;
};

struct RunResult {
  bool ok = false;
  FsStatus error = FsStatus::kOk;     // first failing status when !ok
  uint64_t ops = 0;
  Nanos measured_duration = 0;
  double ops_per_second = 0.0;
  RunningStats latency;
  LatencyHistogram histogram;
  std::vector<double> throughput_series;  // ops/s per timeline interval
  Nanos timeline_interval = 0;
  std::vector<LatencyHistogram> histogram_slices;
  Nanos histogram_slice = 0;
  double cache_hit_ratio = 0.0;
  VfsStats vfs_stats;
  DiskStats disk_stats;
  IoSchedulerStats scheduler_stats;
  // Per-simulated-thread operation counts (size == config.threads).
  std::vector<uint64_t> per_thread_ops;
  // Device-fault axis (all-zero when faults are off and nothing failed).
  uint64_t failed_ops = 0;
  FaultSummary fault;
  // Redundancy-layer record (all-zero when no array is configured; disk and
  // scheduler stats above are then per-device sums).
  ArraySummary array;
  // Crash-scenario outcome (set iff the config asked for a crash).
  std::optional<CrashReport> crash_report;
};

struct ExperimentResult {
  std::vector<RunResult> runs;
  Summary throughput;        // ops/s across runs
  Summary mean_latency_ns;   // per-run mean latency across runs
  LatencyHistogram merged_histogram;

  // Per-run throughput values (for significance tests).
  std::vector<double> ThroughputSamples() const;
  const RunResult& representative() const { return runs.front(); }
  bool AllOk() const;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config) : config_(config) {}

  // Runs `workload_factory()` once per run against `machine_factory(seed)`.
  // With config.threads > 1 every thread gets its own instance from the same
  // factory — appropriate only for workloads whose instances do not collide
  // in the namespace; use the threaded overload otherwise.
  ExperimentResult Run(const MachineFactory& machine_factory,
                       const WorkloadFactory& workload_factory) const;

  // Threaded form: `workload_factory(t)` builds simulated thread t's
  // workload (see MtPostmarkFactory / MtMetadataMixFactory).
  ExperimentResult Run(const MachineFactory& machine_factory,
                       const ThreadedWorkloadFactory& workload_factory) const;

  const ExperimentConfig& config() const { return config_; }

 private:
  RunResult RunOnce(const MachineFactory& machine_factory,
                    const ThreadedWorkloadFactory& workload_factory, uint64_t seed) const;

  ExperimentConfig config_;
};

// Rebuilds a post-recovery file-system state: a fresh machine from
// `machine_factory(seed)` driven through Setup and then exactly `ops`
// operations of the same deterministic schedule `config` would produce —
// the simulator's equivalent of mounting the replayed image. Returns null
// if setup or any replayed operation fails.
std::unique_ptr<Machine> ReplayRecoveredPrefix(const MachineFactory& machine_factory,
                                               const ThreadedWorkloadFactory& workload_factory,
                                               const ExperimentConfig& config, uint64_t seed,
                                               uint64_t ops);

}  // namespace fsbench

#endif  // SRC_CORE_EXPERIMENT_H_
