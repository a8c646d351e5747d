#include "perfbench/layer_loops.h"

#include <algorithm>
#include <memory>
#include <string>

#include "perfbench/host_trace.h"
#include "src/core/sim_engine.h"
#include "src/sim/ext2fs.h"
#include "src/util/rng.h"

namespace perfbench {

using fsbench::BlockId;
using fsbench::InodeId;
using fsbench::IoKind;
using fsbench::IoRequest;
using fsbench::Machine;
using fsbench::Nanos;
using fsbench::Rng;

namespace {

constexpr int kBatches = 5;

// Runs `batch(calls)` kBatches times, each returning the calls it made, and
// reports the median host ns per call.
template <typename Batch>
double MedianNsPerCall(Batch batch) {
  std::vector<double> per_call;
  for (int i = 0; i < kBatches; ++i) {
    const uint64_t start = NowNs();
    const uint64_t calls = batch();
    per_call.push_back(static_cast<double>(NowNs() - start) / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kBatches / 2];
}

std::unique_ptr<Machine> Build(fsbench::FsKind kind, fsbench::MachineConfig config,
                               uint64_t seed) {
  config.seed = seed;
  return std::make_unique<Machine>(kind, config);
}

// cache_edge_read: a 416 MiB file (the knee) against the workload's page
// cache. Insert streams the file in ascending order as MakeFile/PrewarmFile
// do; Lookup probes uniformly random pages as the 4 KiB random reads do.
void PageCacheLoops(uint64_t seed, std::vector<LoopResult>* out) {
  const std::unique_ptr<Machine> machine =
      Build(fsbench::FsKind::kExt2, CacheEdgeMachine(), seed);
  const size_t capacity = machine->cache_capacity_pages();
  constexpr uint64_t kFilePages = 416 * fsbench::kMiB / (4 * fsbench::kKiB);
  fsbench::PageCache cache(capacity, fsbench::EvictionPolicyKind::kLru);
  fsbench::PageCache::EvictedBatch evicted;
  InodeId ino = 100;
  const double insert_ns = MedianNsPerCall([&] {
    ++ino;  // a fresh file each batch: every insert past capacity evicts
    for (uint64_t page = 0; page < kFilePages; ++page) {
      cache.Insert({ino, page}, page, false, &evicted);
    }
    return kFilePages;
  });
  Rng rng(seed);
  constexpr uint64_t kLookups = 1'000'000;
  uint64_t hits = 0;
  const double lookup_ns = MedianNsPerCall([&] {
    for (uint64_t i = 0; i < kLookups; ++i) {
      hits += cache.Lookup({ino, rng.NextBelow(kFilePages)}) ? 1 : 0;
    }
    return kLookups;
  });
  const std::string shape = "capacity " + std::to_string(capacity) + " pages (LRU), file " +
                            std::to_string(kFilePages) + " pages";
  out->push_back({"loop.page_cache.insert_ns", insert_ns, shape + ", ascending inserts"});
  out->push_back({"loop.page_cache.lookup_ns", lookup_ns,
                  shape + ", uniform random lookups, hit ratio " +
                      std::to_string(static_cast<double>(hits) / (kBatches * kLookups))});
}

// cache_edge_read's set-up: MakeFile allocates the file page by page, each
// block's goal the block after the previous one.
void AllocatorLoop(std::vector<LoopResult>* out) {
  const fsbench::FsLayoutParams layout = CacheEdgeMachine().layout;
  const uint64_t total_blocks = CacheEdgeMachine().disk.capacity / layout.block_size;
  constexpr uint64_t kFileBlocks = 416 * fsbench::kMiB / (4 * fsbench::kKiB);
  fsbench::BlockAllocator alloc(total_blocks, layout.group_blocks);
  BlockId goal = layout.group_header_blocks;
  const double ns = MedianNsPerCall([&] {
    for (uint64_t i = 0; i < kFileBlocks; ++i) {
      const std::optional<BlockId> block = alloc.AllocateBlock(goal);
      goal = block.has_value() ? *block + 1 : 0;
    }
    return kFileBlocks;
  });
  out->push_back({"loop.alloc.allocate_ns", ns,
                  "AllocateBlock(goal = previous + 1), " + std::to_string(kFileBlocks) +
                      " blocks per file, group " + std::to_string(layout.group_blocks) +
                      " blocks"});
}

// metadata_cached: one thread's tree, 8 directories x 64 files, all cache
// resident; positive lookups and stats on uniformly random files.
void FsLoops(uint64_t seed, std::vector<LoopResult>* out) {
  const fsbench::MachineConfig config = MetadataMachine();
  fsbench::Ext2Fs fs(config.disk.capacity, config.layout, nullptr);
  const fsbench::MetadataMixConfig shape = MetadataShape();
  fsbench::MetaIo io;
  std::vector<InodeId> dirs;
  std::vector<InodeId> files;
  std::vector<std::string> names;
  for (uint64_t d = 0; d < shape.dirs; ++d) {
    io.Reset();
    dirs.push_back(fs.Create(fsbench::kRootInode, "d" + std::to_string(d),
                             fsbench::FileType::kDirectory, &io)
                       .value);
    for (uint64_t f = 0; f < shape.files_per_dir; ++f) {
      names.push_back("f" + std::to_string(f));
      io.Reset();
      files.push_back(fs.Create(dirs.back(), names.back(), fsbench::FileType::kRegular, &io).value);
    }
  }
  Rng rng(seed);
  constexpr uint64_t kCalls = 1'000'000;
  uint64_t found = 0;
  const double lookup_ns = MedianNsPerCall([&] {
    for (uint64_t i = 0; i < kCalls; ++i) {
      const uint64_t pick = rng.NextBelow(files.size());
      io.Reset();
      found += fs.Lookup(dirs[pick / shape.files_per_dir], names[pick], &io).ok() ? 1 : 0;
    }
    return kCalls;
  });
  const double stat_ns = MedianNsPerCall([&] {
    for (uint64_t i = 0; i < kCalls; ++i) {
      io.Reset();
      found += fs.Stat(files[rng.NextBelow(files.size())], &io).ok() ? 1 : 0;
    }
    return kCalls;
  });
  const std::string tree = std::to_string(shape.dirs) + " dirs x " +
                           std::to_string(shape.files_per_dir) + " files (ext2)";
  out->push_back({"loop.fs.lookup_ns", lookup_ns, tree + ", positive lookups"});
  out->push_back({"loop.fs.stat_ns", stat_ns,
                  tree + ", stat of random files, " + std::to_string(found) + " calls ok"});
}

// Writeback-shaped traffic: a batch of `async_batch` single-page async
// writes in ascending block order (the VFS sorts each writeback batch), then
// `syncs` single-page synchronous demand reads, at random blocks of a
// `span_blocks` region. Reports host ns per submitted request.
double SchedulerLoop(fsbench::BlockIo& io, uint64_t seed, uint64_t span_blocks,
                     uint32_t async_batch, uint32_t syncs) {
  Rng rng(seed);
  Nanos now = 0;
  std::vector<uint64_t> blocks(async_batch);
  constexpr uint64_t kRounds = 200;
  return MedianNsPerCall([&] {
    for (uint64_t round = 0; round < kRounds; ++round) {
      for (uint64_t& block : blocks) {
        block = rng.NextBelow(span_blocks);
      }
      std::sort(blocks.begin(), blocks.end());
      for (const uint64_t block : blocks) {
        now = io.SubmitAsync(IoRequest{IoKind::kWrite, block * 8, 8, false}, now);
      }
      for (uint32_t i = 0; i < syncs; ++i) {
        const std::optional<Nanos> done = io.SubmitSync(
            IoRequest{IoKind::kRead, rng.NextBelow(span_blocks) * 8, 8, false}, now);
        now = done.value_or(now);
      }
    }
    return kRounds * (async_batch + syncs);
  });
}

void SchedulerLoops(uint64_t seed, std::vector<LoopResult>* out) {
  // postmark_hdd at the default seed: 56.6k async writeback pages against
  // 30.7k single-page demand reads (1.85 : 1), written in 256-page batches
  // (VfsConfig::writeback_batch_pages) over a ~460 MiB file set.
  constexpr uint64_t kHddSpan = 460 * 256;  // 4 KiB blocks
  const std::unique_ptr<Machine> hdd =
      Build(fsbench::FsKind::kExt2, PostmarkHddMachine(), seed);
  out->push_back({"loop.sched_hdd.request_ns",
                  SchedulerLoop(hdd->scheduler(), seed, kHddSpan, 256, 138),
                  "kElevator + HDD, batches of 256 sorted async 1-page writes then 138 sync "
                  "1-page reads, 460 MiB span"});

  // ext3_ssd_mirror_crash at the default seed: 53.4k async (writeback +
  // journal) against 5.4k sync requests (~10 : 1) over a ~64 MiB file set
  // plus log; one replica's multi-queue scheduler (8-channel SSD, transient
  // faults 1e-4, 4 attempts), and the mirror on top of both replicas.
  constexpr uint64_t kSsdSpan = 64 * 256;
  const std::unique_ptr<Machine> ssd =
      Build(fsbench::FsKind::kExt3, MirrorSsdMachine(), seed);
  const std::string ssd_shape =
      "batches of 256 sorted async 1-page writes then 26 sync 1-page reads, 64 MiB span";
  out->push_back({"loop.sched_ssd.request_ns",
                  SchedulerLoop(ssd->scheduler(0), seed, kSsdSpan, 256, 26),
                  "kMultiQueue + 8-channel SSD (faults 1e-4 x 4 attempts), " + ssd_shape});
  out->push_back({"loop.array.mirror_write_ns",
                  SchedulerLoop(*ssd->array(), seed + 1, kSsdSpan, 256, 26),
                  "2-way SSD mirror, " + ssd_shape});
}

// Per-thread seed as Experiment derives it (src/core/experiment.cc), so the
// directly driven crash below is run 0 of the cell's experiment.
uint64_t ThreadSeed(uint64_t run_seed, int thread) {
  return (run_seed ^ 0x9e3779b97f4a7c15ULL) + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(thread);
}

}  // namespace

std::vector<LoopResult> RunLayerLoops(uint64_t seed) {
  std::vector<LoopResult> out;
  PageCacheLoops(seed, &out);
  FsLoops(seed, &out);
  AllocatorLoop(&out);
  SchedulerLoops(seed, &out);
  return out;
}

RecoveryPhases TimeRecoveryPhases(const Cell& cell) {
  const fsbench::ExperimentConfig& config = cell.config;
  const uint64_t seed = config.base_seed;
  RecoveryPhases phases;
  std::unique_ptr<Machine> machine = cell.machine(seed);
  machine->EnableCrashTracking();
  fsbench::SimEngineConfig engine_config;
  engine_config.duration = config.duration;
  engine_config.framework_overhead = config.framework_overhead;
  engine_config.max_ops = config.max_ops;
  engine_config.prewarm = config.prewarm;
  engine_config.continue_on_error = config.continue_on_error;
  engine_config.crash_at_op = config.crash->at_op;
  fsbench::SimEngine engine(machine.get(), engine_config);
  for (int thread = 0; thread < config.threads; ++thread) {
    engine.AddThread(cell.workload(thread), ThreadSeed(seed, thread));
  }
  if (engine.Prepare() != fsbench::FsStatus::kOk) {
    return phases;
  }
  machine->StartFaultClock(machine->clock().now());
  const fsbench::SimEngineResult run = engine.Run(nullptr);
  if (!run.ok || !run.crashed) {
    return phases;
  }
  uint64_t t0 = NowNs();
  const fsbench::CrashReport report = fsbench::SimulateCrashRecovery(
      *machine, run.crash_time, run.total_ops, run.stable_watermark);
  uint64_t t1 = NowNs();
  const std::unique_ptr<Machine> recovered = fsbench::ReplayRecoveredPrefix(
      cell.machine, cell.workload, config, seed, report.recovery_watermark);
  uint64_t t2 = NowNs();
  std::string error;
  phases.consistent = recovered != nullptr && recovered->fs().CheckConsistency(&error);
  uint64_t t3 = NowNs();
  phases.crash_s = static_cast<double>(t1 - t0) * 1e-9;
  phases.replay_s = static_cast<double>(t2 - t1) * 1e-9;
  phases.fsck_s = static_cast<double>(t3 - t2) * 1e-9;
  phases.watermark = report.recovery_watermark;
  return phases;
}

}  // namespace perfbench
