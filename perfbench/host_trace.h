// Host-time probes the benchmark wraps around the simulator's public
// factories. Nothing here is compiled into the simulator: the probe sees the
// program only through MachineFactory / ThreadedWorkloadFactory and the
// Workload interface, so a traced run executes exactly the calls an
// untraced one does, plus clock reads.
//
// Untraced runs time only set-up (two clock reads per machine build and per
// Setup/Prewarm call). Traced runs also time every Step and keep per-op-type
// host-time histograms, the engine span (end of Prepare to the last Step's
// end) and, from the thread-0 decorator's destructor, the machine's
// per-layer counters.
#ifndef PERFBENCH_HOST_TRACE_H_
#define PERFBENCH_HOST_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/core/experiment.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Log-linear histogram of host nanoseconds: exact below 64 ns, then 32
// sub-buckets per power of two (~3% wide). Quantiles interpolate within the
// bucket by rank.
class HostHistogram {
 public:
  void Add(uint64_t ns);
  void Merge(const HostHistogram& other);
  uint64_t count() const { return count_; }
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kLinear = 64;
  static constexpr int kBuckets = kLinear + (64 - 6) * (1 << kSubBits);
  static int BucketFor(uint64_t ns);
  static double BucketLow(int bucket);
  static double BucketHigh(int bucket);

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

// Per-layer counters summed over the measured (non-replay) machines of a rep.
struct LayerCounters {
  fsbench::PageCacheStats cache;
  fsbench::VfsStats vfs;
  fsbench::IoSchedulerStats sched;  // max_queue_depth is a max, not a sum
  fsbench::DiskStats disk;
  fsbench::BlockAllocatorStats alloc;
  fsbench::JournalStats journal;
  fsbench::TxnLogStats txn_log;
  uint64_t degraded_reads = 0;  // BlockArray sub-reads whose first replica failed
  uint64_t machines = 0;

  void Capture(fsbench::Machine& machine);
};

struct HostProbe {
  bool trace = false;
  // Set-up (every run): machine construction, Workload::Setup, Prewarm.
  uint64_t machine_build_ns = 0;
  uint64_t setup_ns = 0;
  uint64_t prewarm_ns = 0;
  uint64_t machines_built = 0;
  // Crash cells build a second machine per run for the prefix replay; the
  // factory wrapper tells the decorators which role the latest machine has.
  bool crash_cell = false;
  bool latest_is_replay = false;

  // Traced only.
  std::array<HostHistogram, fsbench::kOpTypeCount> step_hist;
  HostHistogram step_all;
  uint64_t step_ns = 0;
  uint64_t engine_run_ns = 0;
  LayerCounters counters;

  // Engine span bookkeeping: Prepare ends at the last Setup/Prewarm return;
  // the run span ends at the last Step return before the next machine build.
  uint64_t prepared_at = 0;
  uint64_t last_step_end = 0;
  bool span_open = false;

  uint64_t total_setup_ns() const { return machine_build_ns + setup_ns + prewarm_ns; }
  void CloseEngineSpan();
};

// Factory wrappers. The probe must outlive every Experiment::Run the
// wrapped factories are handed to.
fsbench::MachineFactory ProbedMachines(fsbench::MachineFactory inner, HostProbe* probe);
fsbench::ThreadedWorkloadFactory ProbedWorkloads(fsbench::ThreadedWorkloadFactory inner,
                                                 HostProbe* probe);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_TRACE_H_
