// Differential + determinism tests for the event-driven multi-thread
// simulation core (src/core/sim_engine.h).
//
// OldSingleThreadLoop below is the pre-refactor experiment step loop, kept
// verbatim as an oracle (the same role ReferenceVfs plays in
// tests/vfs_pipeline_differential_test.cc): one workload driven directly on
// the machine's base clock, `while (clock.now() < end)`, record, advance
// framework overhead. The engine replaces that with per-thread clock
// cursors dispatched smallest-local-time-first through Machine::BindCursor —
// and at N=1 that machinery must be a proven no-op: clock, VfsStats,
// DiskStats, scheduler stats and cache state byte-identical on randomized
// traces across ext2/ext3/xfs.
//
// The remaining tests pin down the multi-thread semantics themselves:
// determinism (same seed => bit-identical results, N=4 run twice) and
// contention visibility (disk-bound threads queue against the shared device
// timeline: real queue depths > 1 and sub-linear aggregate scaling).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/sim_engine.h"
#include "src/core/workloads/compile_like.h"
#include "src/core/workloads/postmark_like.h"
#include "src/sim/machine.h"
#include "tests/run_digest.h"

namespace fsbench {
namespace {

// --- randomized trace workload ---------------------------------------------

// One random namespace/data operation per Step, drawn from ctx.rng: the same
// mix the VFS pipeline differential uses, tolerant of expected errors
// (ENOENT probes, unlinking open files) so traces can run for thousands of
// steps. All state lives in the instance, so two instances fed the same rng
// stream issue identical call sequences.
class RandomTraceWorkload : public Workload {
 public:
  const char* name() const override { return "random-trace"; }

  FsStatus Setup(WorkloadContext& ctx) override {
    for (const char* dir : {"/d0", "/d1", "/d2", "/d0/sub"}) {
      const FsStatus status = ctx.vfs->Mkdir(dir);
      if (status != FsStatus::kOk && status != FsStatus::kExists) {
        return status;
      }
      dirs_.emplace_back(dir);
    }
    for (int i = 0; i < 19; ++i) {
      pool_.push_back(dirs_[i % dirs_.size()] + "/f" + std::to_string(i));
    }
    pool_.push_back("/top");
    return FsStatus::kOk;
  }

  FsResult<OpType> Step(WorkloadContext& ctx) override {
    Vfs& vfs = *ctx.vfs;
    const std::string& path = pool_[ctx.rng.NextBelow(pool_.size())];
    const uint64_t op = ctx.rng.NextBelow(100);
    if (op < 18) {
      const bool create = ctx.rng.NextBelow(2) == 0;
      const FsResult<int> fd = vfs.Open(path, create);
      if (fd.ok()) {
        fds_.push_back(fd.value);
      }
      return FsResult<OpType>::Ok(OpType::kOpen);
    }
    if (op < 36 && !fds_.empty()) {
      const int fd = fds_[ctx.rng.NextBelow(fds_.size())];
      const Bytes offset = ctx.rng.NextBelow(40) * 1024;
      const Bytes length = (1 + ctx.rng.NextBelow(24)) * 1024;
      const FsResult<Bytes> read = vfs.Read(fd, offset, length);
      if (read.status == FsStatus::kIoError) {
        return FsResult<OpType>::Error(read.status);
      }
      return FsResult<OpType>::Ok(OpType::kRead);
    }
    if (op < 54 && !fds_.empty()) {
      const int fd = fds_[ctx.rng.NextBelow(fds_.size())];
      const Bytes offset = ctx.rng.NextBelow(40) * 1024;
      const Bytes length = (1 + ctx.rng.NextBelow(24)) * 1024;
      const FsResult<Bytes> written = vfs.Write(fd, offset, length);
      if (written.status == FsStatus::kIoError) {
        return FsResult<OpType>::Error(written.status);
      }
      return FsResult<OpType>::Ok(OpType::kWrite);
    }
    if (op < 62) {
      (void)vfs.Stat(path);
      return FsResult<OpType>::Ok(OpType::kStat);
    }
    if (op < 68) {
      (void)vfs.CreateFile(path);
      return FsResult<OpType>::Ok(OpType::kCreate);
    }
    if (op < 76) {
      (void)vfs.Unlink(path);
      return FsResult<OpType>::Ok(OpType::kUnlink);
    }
    if (op < 80) {
      (void)vfs.Truncate(path, ctx.rng.NextBelow(30) * 1024);
      return FsResult<OpType>::Ok(OpType::kOther);
    }
    if (op < 84) {
      (void)vfs.ReadDir(dirs_[ctx.rng.NextBelow(dirs_.size())]);
      return FsResult<OpType>::Ok(OpType::kReadDir);
    }
    if (op < 88 && !fds_.empty()) {
      (void)vfs.Fsync(fds_[ctx.rng.NextBelow(fds_.size())]);
      return FsResult<OpType>::Ok(OpType::kFsync);
    }
    if (op < 92 && !fds_.empty()) {
      const size_t idx = ctx.rng.NextBelow(fds_.size());
      (void)vfs.Close(fds_[idx]);
      fds_[idx] = fds_.back();
      fds_.pop_back();
      return FsResult<OpType>::Ok(OpType::kClose);
    }
    if (op < 96) {
      (void)vfs.Stat(path + "/nope");
      return FsResult<OpType>::Ok(OpType::kStat);
    }
    vfs.SyncAll();
    return FsResult<OpType>::Ok(OpType::kOther);
  }

 private:
  std::vector<std::string> dirs_;
  std::vector<std::string> pool_;
  std::vector<int> fds_;
};

// Small cache (1 MiB, jitter-free) so traces exercise eviction, writeback
// and demand misses on every file system.
MachineFactory SmallCacheMachine(FsKind kind) {
  return [kind](uint64_t seed) {
    MachineConfig config;
    config.ram = 103 * kMiB;
    config.os_reserved = 102 * kMiB;
    config.os_reserve_jitter = 0;
    config.seed = seed;
    return std::make_unique<Machine>(kind, config);
  };
}

// --- the pre-refactor single-threaded loop, retained as the oracle ----------

struct OldLoopResult {
  bool ok = false;
  uint64_t ops = 0;
  Nanos measure_from = 0;
};

OldLoopResult OldSingleThreadLoop(Machine& machine, Workload& workload, uint64_t ctx_seed,
                                  Nanos duration, Nanos framework_overhead, uint64_t max_ops,
                                  MetricsCollector* metrics) {
  OldLoopResult result;
  WorkloadContext ctx(&machine, ctx_seed);
  if (workload.Setup(ctx) != FsStatus::kOk) {
    return result;
  }
  VirtualClock& clock = machine.clock();
  const Nanos measure_from = clock.now();
  const Nanos end = measure_from + duration;
  result.measure_from = measure_from;
  const double cpu_multiplier = machine.vfs().config().cpu_cost_multiplier;
  const auto overhead =
      static_cast<Nanos>(static_cast<double>(framework_overhead) * cpu_multiplier);
  uint64_t ops = 0;
  while (clock.now() < end) {
    if (max_ops != 0 && ops >= max_ops) {
      break;
    }
    const Nanos start = clock.now();
    const FsResult<OpType> op = workload.Step(ctx);
    if (!op.ok()) {
      return result;
    }
    metrics->Record(op.value, start, clock.now() - start);
    clock.Advance(overhead);
    ++ops;
  }
  result.ops = ops;
  result.ok = true;
  return result;
}

class EngineEquivalence : public ::testing::TestWithParam<std::tuple<FsKind, uint64_t>> {};

TEST_P(EngineEquivalence, SingleThreadEngineMatchesOldLoop) {
  const auto [kind, seed] = GetParam();
  constexpr Nanos kDuration = 40 * kSecond;
  constexpr Nanos kOverhead = 99 * kMicrosecond;
  constexpr uint64_t kMaxOps = 3000;
  const uint64_t ctx_seed = seed ^ 0x9e3779b97f4a7c15ULL;

  const MachineFactory factory = SmallCacheMachine(kind);
  MetricsConfig metrics_config;

  // Oracle: the old loop, directly on the base clock.
  std::unique_ptr<Machine> old_machine = factory(seed);
  RandomTraceWorkload old_workload;
  MetricsCollector old_metrics(metrics_config);
  const OldLoopResult old_result = OldSingleThreadLoop(
      *old_machine, old_workload, ctx_seed, kDuration, kOverhead, kMaxOps, &old_metrics);
  ASSERT_TRUE(old_result.ok);
  ASSERT_GT(old_result.ops, 0u);

  // Engine at N=1 on an identically seeded twin stack.
  std::unique_ptr<Machine> new_machine = factory(seed);
  SimEngineConfig engine_config;
  engine_config.duration = kDuration;
  engine_config.framework_overhead = kOverhead;
  engine_config.max_ops = kMaxOps;
  SimEngine engine(new_machine.get(), engine_config);
  engine.AddThread(std::make_unique<RandomTraceWorkload>(), ctx_seed);
  ASSERT_EQ(engine.Prepare(), FsStatus::kOk);
  MetricsCollector new_metrics(metrics_config);
  const SimEngineResult engine_result = engine.Run(&new_metrics);
  ASSERT_TRUE(engine_result.ok);

  // Clock identity — the strongest check: any divergence in charging order,
  // queueing or commit timing lands here.
  EXPECT_EQ(new_machine->clock().now(), old_machine->clock().now());
  EXPECT_EQ(engine_result.total_ops, old_result.ops);

  EXPECT_EQ(new_machine->vfs().stats(), old_machine->vfs().stats());
  EXPECT_EQ(new_machine->disk().stats(), old_machine->disk().stats());
  EXPECT_EQ(new_machine->scheduler().stats(), old_machine->scheduler().stats());

  // Cache state identity.
  const PageCache& nc = new_machine->vfs().cache();
  const PageCache& oc = old_machine->vfs().cache();
  EXPECT_EQ(nc.size(), oc.size());
  EXPECT_EQ(nc.dirty_count(), oc.dirty_count());
  EXPECT_EQ(nc.stats(), oc.stats());

  // Metric aggregation identity (recording order is the dispatch order).
  EXPECT_EQ(new_metrics.total_ops(), old_metrics.total_ops());
  EXPECT_EQ(DigestOf(new_metrics.latency()), DigestOf(old_metrics.latency()));
  EXPECT_EQ(DigestOf(new_metrics.histogram()), DigestOf(old_metrics.histogram()));

  std::string error;
  EXPECT_TRUE(new_machine->fs().CheckConsistency(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(Traces, EngineEquivalence,
                         ::testing::Values(std::make_tuple(FsKind::kExt2, 11ULL),
                                           std::make_tuple(FsKind::kExt2, 12ULL),
                                           std::make_tuple(FsKind::kExt3, 13ULL),
                                           std::make_tuple(FsKind::kExt3, 14ULL),
                                           std::make_tuple(FsKind::kXfs, 15ULL),
                                           std::make_tuple(FsKind::kXfs, 16ULL)),
                         [](const auto& info) {
                           return std::string(FsKindName(std::get<0>(info.param))) + "_s" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(MtEngineTest, SingleThreadEngineMatchesOldLoopOnCpuBoundWorkload) {
  // compile_like burns most of its time as a direct cursor Advance, not
  // through the VFS: this pins the cursor plumbing for workloads that
  // charge time themselves. (A leak onto the base clock would let the
  // engine's cursor-terminated loop run vastly more ops than the oracle.)
  constexpr Nanos kDuration = 20 * kSecond;
  constexpr Nanos kOverhead = 99 * kMicrosecond;
  constexpr uint64_t kMaxOps = 2000;
  const uint64_t seed = 21;
  const uint64_t ctx_seed = seed ^ 0x9e3779b97f4a7c15ULL;
  CompileLikeConfig compile;
  compile.source_files = 60;
  const MachineFactory factory = SmallCacheMachine(FsKind::kExt2);
  MetricsConfig metrics_config;

  std::unique_ptr<Machine> old_machine = factory(seed);
  CompileLikeWorkload old_workload(compile);
  MetricsCollector old_metrics(metrics_config);
  const OldLoopResult old_result = OldSingleThreadLoop(
      *old_machine, old_workload, ctx_seed, kDuration, kOverhead, kMaxOps, &old_metrics);
  ASSERT_TRUE(old_result.ok);
  ASSERT_GT(old_result.ops, 0u);

  std::unique_ptr<Machine> new_machine = factory(seed);
  SimEngineConfig engine_config;
  engine_config.duration = kDuration;
  engine_config.framework_overhead = kOverhead;
  engine_config.max_ops = kMaxOps;
  SimEngine engine(new_machine.get(), engine_config);
  engine.AddThread(std::make_unique<CompileLikeWorkload>(compile), ctx_seed);
  ASSERT_EQ(engine.Prepare(), FsStatus::kOk);
  MetricsCollector new_metrics(metrics_config);
  const SimEngineResult engine_result = engine.Run(&new_metrics);
  ASSERT_TRUE(engine_result.ok);

  EXPECT_EQ(new_machine->clock().now(), old_machine->clock().now());
  EXPECT_EQ(engine_result.total_ops, old_result.ops);
  EXPECT_EQ(DigestOf(new_metrics.latency()), DigestOf(old_metrics.latency()));
  EXPECT_EQ(new_machine->vfs().stats(), old_machine->vfs().stats());
  EXPECT_EQ(new_machine->disk().stats(), old_machine->disk().stats());
}

// --- multi-thread semantics -------------------------------------------------

MachineFactory TinyCachePaperMachine() {
  return [](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.ram = 120 * kMiB;  // ~10-18 MiB page cache: disk-bound postmark
    config.seed = seed;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

ExperimentResult RunMtPostmark(int threads, Nanos duration) {
  ExperimentConfig config;
  config.runs = 2;
  config.duration = duration;
  config.threads = threads;
  config.max_ops = 0;
  Experiment experiment(config);
  PostmarkConfig pm;
  pm.initial_files = 300;
  pm.min_size = 512;
  pm.max_size = 48 * kKiB;
  return experiment.Run(TinyCachePaperMachine(), MtPostmarkFactory(pm));
}

TEST(MtEngineTest, FourThreadRunIsDeterministic) {
  const ExperimentResult a = RunMtPostmark(4, 2 * kSecond);
  const ExperimentResult b = RunMtPostmark(4, 2 * kSecond);
  ASSERT_TRUE(a.AllOk());
  ASSERT_TRUE(b.AllOk());
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (size_t run = 0; run < a.runs.size(); ++run) {
    EXPECT_EQ(DigestOf(a.runs[run]), DigestOf(b.runs[run])) << "run " << run;
  }
  // Every field, floats bit for bit, plus the cross-run summaries.
  EXPECT_EQ(DigestOf(a), DigestOf(b));
}

TEST(MtEngineTest, DiskBoundThreadsContendOnTheDeviceTimeline) {
  const ExperimentResult one = RunMtPostmark(1, 2 * kSecond);
  const ExperimentResult four = RunMtPostmark(4, 2 * kSecond);
  ASSERT_TRUE(one.AllOk());
  ASSERT_TRUE(four.AllOk());

  // Every thread did work.
  const RunResult& rep = four.representative();
  ASSERT_EQ(rep.per_thread_ops.size(), 4u);
  for (uint64_t ops : rep.per_thread_ops) {
    EXPECT_GT(ops, 0u);
  }

  // Contention is visible: the shared device's queue exceeds one request,
  // sync requests pay queueing delay, and aggregate throughput scales
  // sub-linearly in thread count.
  EXPECT_GT(rep.scheduler_stats.max_queue_depth, 1u);
  EXPECT_GT(rep.scheduler_stats.total_sync_queue_delay, 0);
  EXPECT_LT(four.throughput.mean, 4.0 * one.throughput.mean);
}

MachineFactory TinyCacheSsdMachine() {
  return [](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.ram = 120 * kMiB;  // ~10-18 MiB page cache: device-bound postmark
    config.device = DeviceKind::kSsd;
    config.seed = seed;
    return std::make_unique<Machine>(FsKind::kExt2, config);
  };
}

TEST(MtEngineTest, SsdPostmarkThroughputMonotoneInThreads) {
  // The multi-queue point of the SSD model: more closed-loop threads means
  // more channels busy at once, so aggregate postmark throughput must never
  // DROP as threads are added (the HDD's shared head makes it collapse
  // instead — DiskBoundThreadsContendOnTheDeviceTimeline above). Exact
  // monotonicity, no tolerance: the simulator is deterministic. The
  // total file population is held constant (split across threads) so the
  // aggregate working set — and thus the cache hit rate — does not shift
  // with the thread count; otherwise the comparison measures the cache
  // cliff, not the channels. The ~50 MiB total exceeds the page cache, so
  // every point is device-bound.
  ExperimentConfig config;
  config.runs = 1;
  config.duration = 1 * kSecond;
  config.max_ops = 0;
  PostmarkConfig pm;
  pm.min_size = 512;
  pm.max_size = 64 * kKiB;
  double last = 0.0;
  for (int threads : {1, 2, 4, 8, 16}) {
    config.threads = threads;
    pm.initial_files = 1600 / threads;  // per-thread share of a fixed total
    const ExperimentResult result =
        Experiment(config).Run(TinyCacheSsdMachine(), MtPostmarkFactory(pm));
    ASSERT_TRUE(result.AllOk()) << threads << " threads";
    EXPECT_GE(result.throughput.mean, last) << threads << " threads";
    last = result.throughput.mean;
  }
}

TEST(MtEngineTest, CursorsStayOrderedAndCoverTheWindow) {
  // White-box engine check: after a run every cursor sits at or past the
  // measurement end (no thread starved), and the base clock advanced to the
  // furthest cursor.
  std::unique_ptr<Machine> machine = TinyCachePaperMachine()(7);
  SimEngineConfig config;
  config.duration = kSecond;
  config.framework_overhead = 99 * kMicrosecond;
  SimEngine engine(machine.get(), config);
  PostmarkConfig pm;
  pm.initial_files = 50;
  const ThreadedWorkloadFactory factory = MtPostmarkFactory(pm);
  for (int t = 0; t < 3; ++t) {
    engine.AddThread(factory(t), 1000 + t);
  }
  ASSERT_EQ(engine.Prepare(), FsStatus::kOk);
  const SimEngineResult result = engine.Run(nullptr);
  ASSERT_TRUE(result.ok);
  const Nanos end = result.measure_from + config.duration;
  Nanos max_cursor = 0;
  for (size_t t = 0; t < engine.thread_count(); ++t) {
    EXPECT_GE(engine.cursor(t).now(), end) << "thread " << t;
    max_cursor = std::max(max_cursor, engine.cursor(t).now());
  }
  EXPECT_EQ(machine->clock().now(), max_cursor);
}

}  // namespace
}  // namespace fsbench
