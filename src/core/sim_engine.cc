#include "src/core/sim_engine.h"

#include <algorithm>

namespace fsbench {

SimEngine::SimEngine(Machine* machine, const SimEngineConfig& config)
    : machine_(machine), config_(config) {}

SimEngine::~SimEngine() { machine_->BindCursor(&machine_->clock()); }

void SimEngine::AddThread(std::unique_ptr<Workload> workload, uint64_t rng_seed) {
  threads_.push_back(std::make_unique<SimThread>(machine_, std::move(workload), rng_seed,
                                                 static_cast<int>(threads_.size())));
}

FsStatus SimEngine::Prepare() {
  // Setup runs sequentially on the base clock — the moral equivalent of a
  // benchmark's single-threaded preallocation phase. Cursors join the
  // timeline at the instant setup finished. A file system whose mkfs failed
  // runs nothing.
  if (const FsStatus mkfs = machine_->fs().mkfs_status(); mkfs != FsStatus::kOk) {
    return mkfs;
  }
  machine_->BindCursor(&machine_->clock());
  for (const std::unique_ptr<SimThread>& thread : threads_) {
    const FsStatus setup = thread->workload->Setup(thread->ctx);
    if (setup != FsStatus::kOk) {
      return setup;
    }
  }
  if (config_.prewarm) {
    for (const std::unique_ptr<SimThread>& thread : threads_) {
      const FsStatus prewarm = thread->workload->Prewarm(thread->ctx);
      if (prewarm != FsStatus::kOk) {
        return prewarm;
      }
    }
  }
  return FsStatus::kOk;
}

SimEngineResult SimEngine::Run(MetricsCollector* metrics) {
  SimEngineResult result;
  result.per_thread_ops.assign(threads_.size(), 0);

  // The engine owns cursor scheduling; the base clock (= thread 0's cursor)
  // is the run's time origin and end-of-run frontier. detlint: base-clock
  VirtualClock& base = machine_->clock();
  const Nanos measure_from = base.now() + config_.warmup;
  const Nanos end = measure_from + config_.duration;
  result.measure_from = measure_from;

  const double cpu_multiplier = machine_->vfs().config().cpu_cost_multiplier;
  const auto overhead =
      static_cast<Nanos>(static_cast<double>(config_.framework_overhead) * cpu_multiplier);

  for (const std::unique_ptr<SimThread>& thread : threads_) {
    thread->cursor.AdvanceTo(base.now());
    thread->done = false;
    thread->ops = 0;
  }

  const bool crash_mode = config_.crash_at_op != 0 || config_.crash_at_time != 0;
  const Nanos crash_time =
      config_.crash_at_time != 0 ? measure_from + config_.crash_at_time : 0;

  uint64_t total_ops = 0;
  bool crashed_by_op = false;
  SimThread* bound = nullptr;
  for (;;) {
    // Smallest local time first; the strict < makes ties deterministic
    // (lowest thread index wins), so the dispatch order — and with it every
    // aggregate — is a pure function of the seed.
    SimThread* next = nullptr;
    for (const std::unique_ptr<SimThread>& thread : threads_) {
      if (thread->done) {
        continue;
      }
      if (thread->cursor.now() >= end) {
        thread->done = true;
        continue;
      }
      if (next == nullptr || thread->cursor.now() < next->cursor.now()) {
        next = thread.get();
      }
    }
    if (next == nullptr) {
      break;
    }
    if (config_.max_ops != 0 && total_ops + result.failed_ops >= config_.max_ops) {
      break;
    }
    if (crash_mode) {
      // Crash-at-op: after that many dispatched ops. Crash-at-time: once
      // the smallest cursor reaches the crash instant no operation can
      // start before it, so the dispatched prefix is exactly the pre-crash
      // history.
      if (config_.crash_at_op != 0 && total_ops >= config_.crash_at_op) {
        result.crashed = true;
        crashed_by_op = true;
        break;
      }
      if (crash_time != 0 && next->cursor.now() >= crash_time) {
        result.crashed = true;
        break;
      }
    }
    if (bound != next) {
      machine_->BindCursor(&next->cursor);
      bound = next;
    }
    const Nanos start = next->cursor.now();
    const FsResult<OpType> op = next->workload->Step(next->ctx);
    if (!op.ok()) {
      if (config_.continue_on_error && op.status == FsStatus::kIoError) {
        // The failed attempt charged its device + CPU time to the cursor, so
        // the loop still makes forward progress; the op just isn't recorded.
        ++result.failed_ops;
        next->cursor.Advance(overhead);
        continue;
      }
      if (config_.continue_on_error && op.status == FsStatus::kReadOnly) {
        ++result.failed_ops;
        ++result.retired_threads;
        next->done = true;
        continue;
      }
      machine_->BindCursor(&base);
      result.error = op.status;
      return result;
    }
    const Nanos latency = next->cursor.now() - start;
    if (metrics != nullptr) {
      metrics->Record(op.value, start, latency);
    }
    next->cursor.Advance(overhead);
    ++next->ops;
    ++total_ops;
    if (crash_mode) {
      // The op boundary: everything through op `total_ops` is fully logged.
      machine_->NotifyOpBoundary(total_ops);
      // Stable point (the no-journal recovery anchor): nothing dirty in the
      // cache and the device idle by this thread's local time — a crash now
      // loses nothing.
      if (machine_->vfs().cache().dirty_count() == 0 &&
          machine_->TotalPendingAsync() == 0 &&
          machine_->MaxBusyUntil() <= next->cursor.now()) {
        result.stable_watermark = total_ops;
      }
    }
  }

  machine_->BindCursor(&base);
  Nanos end_time = base.now();
  for (size_t i = 0; i < threads_.size(); ++i) {
    result.per_thread_ops[i] = threads_[i]->ops;
    end_time = std::max(end_time, threads_[i]->cursor.now());
  }
  if (config_.continue_on_error && !result.crashed && config_.duration != 0) {
    // Threads retired by kReadOnly stop early; the measured window does not.
    // A run whose file system collapsed read-only halfway still divides its
    // ops by the full configured duration — that collapse *is* the result.
    end_time = std::max(end_time, end);
  }
  base.AdvanceTo(end_time);
  result.end_time = end_time;
  if (result.crashed) {
    // Crash-at-op has no configured instant: the plug is pulled the moment
    // the last dispatched op's effects exist, the largest cursor. (When
    // both triggers are set and the op count fired first, the configured
    // instant lies in the future and must not be used — it would count
    // still-queued writes as durable.)
    result.crash_time = crashed_by_op || crash_time == 0 ? end_time : crash_time;
  }
  result.total_ops = total_ops;
  result.ok = true;
  return result;
}

}  // namespace fsbench
