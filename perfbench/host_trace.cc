#include "perfbench/host_trace.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

namespace perfbench {

using fsbench::FsResult;
using fsbench::FsStatus;
using fsbench::Machine;
using fsbench::OpType;
using fsbench::Workload;
using fsbench::WorkloadContext;

int HostHistogram::BucketFor(uint64_t ns) {
  if (ns < kLinear) {
    return static_cast<int>(ns);
  }
  const int exponent = 63 - std::countl_zero(ns);  // >= 6
  const auto sub = static_cast<int>((ns >> (exponent - kSubBits)) & ((1 << kSubBits) - 1));
  return kLinear + (exponent - 6) * (1 << kSubBits) + sub;
}

double HostHistogram::BucketLow(int bucket) {
  if (bucket < kLinear) {
    return bucket;
  }
  const int exponent = 6 + (bucket - kLinear) / (1 << kSubBits);
  const int sub = (bucket - kLinear) % (1 << kSubBits);
  const double step = static_cast<double>(uint64_t{1} << (exponent - kSubBits));
  return static_cast<double>(uint64_t{1} << exponent) + sub * step;
}

double HostHistogram::BucketHigh(int bucket) {
  return bucket + 1 < kBuckets ? BucketLow(bucket + 1) : BucketLow(bucket) * 2.0;
}

void HostHistogram::Add(uint64_t ns) {
  ++counts_[static_cast<size_t>(BucketFor(ns))];
  ++count_;
}

void HostHistogram::Merge(const HostHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

double HostHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  uint64_t below = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const uint64_t here = counts_[static_cast<size_t>(b)];
    if (here != 0 && static_cast<double>(below + here) >= rank) {
      const double within = (rank - static_cast<double>(below)) / static_cast<double>(here);
      return BucketLow(b) + within * (BucketHigh(b) - BucketLow(b));
    }
    below += here;
  }
  return BucketLow(kBuckets - 1);
}

void LayerCounters::Capture(Machine& machine) {
  const fsbench::PageCacheStats& c = machine.vfs().cache().stats();
  cache.hits += c.hits;
  cache.misses += c.misses;
  cache.insertions += c.insertions;
  cache.evictions += c.evictions;
  cache.dirty_evictions += c.dirty_evictions;

  const fsbench::VfsStats& v = machine.vfs().stats();
  vfs.demand_requests += v.demand_requests;
  vfs.readahead_pages += v.readahead_pages;
  vfs.writeback_pages += v.writeback_pages;

  const fsbench::IoSchedulerStats s = machine.AggregateSchedulerStats();
  sched.sync_requests += s.sync_requests;
  sched.async_requests += s.async_requests;
  sched.retries += s.retries;
  sched.total_sync_queue_delay += s.total_sync_queue_delay;
  sched.async_throttle_stalls += s.async_throttle_stalls;
  sched.max_queue_depth = std::max(sched.max_queue_depth, s.max_queue_depth);

  const fsbench::DiskStats d = machine.AggregateDiskStats();
  disk.reads += d.reads;
  disk.writes += d.writes;
  disk.seeks += d.seeks;
  disk.sectors_written += d.sectors_written;
  disk.total_service_time += d.total_service_time;
  disk.gc_page_moves += d.gc_page_moves;

  const fsbench::BlockAllocatorStats& a = machine.fs().allocator().stats();
  alloc.allocations += a.allocations;
  alloc.goal_hits += a.goal_hits;

  if (const fsbench::Journal* j = machine.fs().journal(); j != nullptr) {
    journal.commits += j->stats().commits;
    journal.blocks_logged += j->stats().blocks_logged;
    if (const fsbench::TxnLog* log = j->txn_log(); log != nullptr) {
      txn_log.commits += log->stats().commits;
      txn_log.blocks_logged += log->stats().blocks_logged;
      txn_log.stall_time += log->stats().stall_time;
    }
  }
  if (fsbench::BlockArray* array = machine.array(); array != nullptr) {
    degraded_reads += array->summary().degraded_reads;
  }
  ++machines;
}

void HostProbe::CloseEngineSpan() {
  if (span_open) {
    engine_run_ns += last_step_end - prepared_at;
    span_open = false;
  }
}

namespace {

// Forwards every call to the wrapped workload and charges the host time of
// Setup / Prewarm (always) and Step (traced runs) to the probe.
class TimedWorkload : public Workload {
 public:
  TimedWorkload(std::unique_ptr<Workload> inner, HostProbe* probe, int thread)
      : inner_(std::move(inner)), probe_(probe), thread_(thread),
        replay_(probe->latest_is_replay) {}

  // The Experiment owns and destroys the machine right after its engine;
  // the engine's threads (and so this decorator) go first, which makes the
  // destructor the last point where the run's layer counters are readable.
  ~TimedWorkload() override {
    if (probe_->trace && thread_ == 0 && !replay_ && machine_ != nullptr) {
      probe_->CloseEngineSpan();
      probe_->counters.Capture(*machine_);
    }
  }

  TimedWorkload(const TimedWorkload&) = delete;
  TimedWorkload& operator=(const TimedWorkload&) = delete;

  const char* name() const override { return inner_->name(); }

  FsStatus Setup(WorkloadContext& ctx) override {
    machine_ = ctx.machine;
    const uint64_t start = NowNs();
    const FsStatus status = inner_->Setup(ctx);
    const uint64_t end = NowNs();
    probe_->setup_ns += end - start;
    probe_->prepared_at = end;
    return status;
  }

  FsStatus Prewarm(WorkloadContext& ctx) override {
    const uint64_t start = NowNs();
    const FsStatus status = inner_->Prewarm(ctx);
    const uint64_t end = NowNs();
    probe_->prewarm_ns += end - start;
    probe_->prepared_at = end;
    return status;
  }

  FsResult<OpType> Step(WorkloadContext& ctx) override {
    if (!probe_->trace) {
      return inner_->Step(ctx);
    }
    const uint64_t start = NowNs();
    const FsResult<OpType> op = inner_->Step(ctx);
    const uint64_t end = NowNs();
    const uint64_t ns = end - start;
    probe_->span_open = true;
    probe_->last_step_end = end;
    probe_->step_ns += ns;
    probe_->step_all.Add(ns);
    if (op.ok()) {
      probe_->step_hist[static_cast<size_t>(op.value)].Add(ns);
    }
    return op;
  }

 private:
  std::unique_ptr<Workload> inner_;
  HostProbe* probe_;
  int thread_;
  bool replay_;
  Machine* machine_ = nullptr;
};

}  // namespace

fsbench::MachineFactory ProbedMachines(fsbench::MachineFactory inner, HostProbe* probe) {
  return [inner = std::move(inner), probe](uint64_t seed) {
    probe->CloseEngineSpan();
    const uint64_t start = NowNs();
    std::unique_ptr<Machine> machine = inner(seed);
    probe->machine_build_ns += NowNs() - start;
    // Runs and replays alternate on one host thread (jobs = 1): in a crash
    // cell every second machine is the prefix replay of the run before it.
    probe->latest_is_replay = probe->crash_cell && probe->machines_built % 2 == 1;
    ++probe->machines_built;
    return machine;
  };
}

fsbench::ThreadedWorkloadFactory ProbedWorkloads(fsbench::ThreadedWorkloadFactory inner,
                                                 HostProbe* probe) {
  return [inner = std::move(inner), probe](int thread) -> std::unique_ptr<Workload> {
    return std::make_unique<TimedWorkload>(inner(thread), probe, thread);
  };
}

}  // namespace perfbench
