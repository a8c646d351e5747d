// Request queueing in front of a DeviceModel.
//
// The scheduler owns the device timeline: it is deliberately *clockless* —
// every entry point takes the caller's current virtual time explicitly, so N
// simulated threads with independent clock cursors can share one device.
// Synchronous requests (demand reads, fsync writes) start no earlier than
// the relevant busy-until timeline — the absolute time the device finishes
// already-admitted work; a thread whose cursor trails another thread's I/O
// therefore observes real queueing delay. Asynchronous requests (readahead,
// writeback) only occupy the device in the background and are serviced — in
// FIFO or elevator (C-SCAN, ascending from the current head position with
// wrap-around) order — before the next synchronous request or an explicit
// Drain().
//
// kMultiQueue is the NVMe-class mode: the scheduler keeps one busy-until
// timeline per device channel (DeviceModel::channels()/ChannelOf), so
// requests landing on distinct channels overlap in time and aggregate
// throughput rises with queue depth until the channels saturate. There is
// no elevator — flash has no head to spare a seek — so dispatch is FIFO
// per channel. `busy_until()` stays the max over every channel (the stable
// point and replica-choice consumers need the device-wide horizon).
//
// Every kind shares one dispatch loop: a single-queue device is simply a
// one-timeline device. The elevator's C-SCAN sort of the pending batch is
// the only kind-specific step; then each request starts at
// max(its timeline's busy-until, its submission time) and its device end is
// committed back to that timeline before the next request is placed.
//
// Queue-depth and wait accounting reflect the device's real outstanding
// queue: admitted-but-not-yet-completed requests are tracked in a completion
// min-heap and retired as later submissions observe time passing, so
// `max_queue_depth` counts in-flight requests plus queued async plus the
// arriving request — not merely the async backlog.
//
// The scheduler is also where fault-handling policy lives (the block layer's
// role on a real host): every submission runs through a retry loop —
// transient faults are re-attempted up to RetryPolicy::max_attempts with
// exponential virtual-time backoff, persistent faults can trigger a one-time
// region remap into the disk's spare pool, and only a request that exhausts
// the policy surfaces as an error. Permanent *write* failures are reported
// to an IoWriteErrorSink (the VFS), which lets file systems react —
// journaled ones abort and remount read-only.
#ifndef SRC_SIM_IO_SCHEDULER_H_
#define SRC_SIM_IO_SCHEDULER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/device_model.h"
#include "src/util/units.h"

namespace fsbench {

enum class SchedulerKind : uint8_t { kFifo, kElevator, kMultiQueue };

// Abstract block endpoint the upper layers (VFS, journal, TxnLog) issue
// requests against. A single IoScheduler is the degenerate case; a
// BlockArray (src/sim/block_array.h) composes several scheduler+disk pairs
// into a redundant geometry behind the same three entry points. Everything
// is clockless: callers pass their own virtual time.
class BlockIo {
 public:
  virtual ~BlockIo() = default;

  // Synchronous request at the caller's time `now`; returns the absolute
  // completion time, or std::nullopt on permanent failure.
  virtual std::optional<Nanos> SubmitSync(const IoRequest& req, Nanos now) = 0;

  // Background request admitted at `now`; serviced before the next sync
  // request or Drain(). Returns the time the submission was *accepted*
  // (>= now): normally `now` itself, but a device whose background queue
  // is full throttles the producer — the block layer's bounded request
  // queue — and the caller must charge the returned stall to its clock.
  virtual Nanos SubmitAsync(const IoRequest& req, Nanos now) = 0;

  // Services all queued background work; returns the time the device(s) go
  // idle (>= now).
  virtual Nanos Drain(Nanos now) = 0;
};

// Observes the moment a request's completion time is determined (admission
// for sync requests, the service pass for async ones). Used by ShadowDisk to
// track durable-vs-volatile block state for crash injection; null (the
// default) costs the hot path nothing but a branch.
class IoCompletionObserver {
 public:
  virtual ~IoCompletionObserver() = default;
  // `ok` is false when the request hit an injected device fault (no
  // completion happened; `completion` is the failure instant).
  virtual void OnIoComplete(const IoRequest& req, Nanos completion, bool ok) = 0;
};

// Notified when a write fails permanently (the retry policy is exhausted).
// Implemented by the VFS, which forwards metadata/log failures to the file
// system's error handler. Read failures are not reported here: synchronous
// reads surface their error to the issuing operation directly.
class IoWriteErrorSink {
 public:
  virtual ~IoWriteErrorSink() = default;
  virtual void OnWriteError(const IoRequest& req, Nanos now) = 0;
};

// Block-layer fault handling policy. Defaults are the historical behavior:
// one attempt, no remapping — every device fault surfaces immediately.
struct RetryPolicy {
  // Total attempts per request, including the first (1 = no retries).
  // Applies to transient faults only: a persistent (medium-error) verdict is
  // deterministic, so the scheduler fails it fast rather than burning
  // attempts — remapping is the only policy that rescues those.
  uint32_t max_attempts = 1;
  // Virtual-time wait before the first re-attempt; doubles (well,
  // multiplies) on each subsequent one.
  Nanos initial_backoff = FromMillis(0.5);
  double backoff_multiplier = 2.0;
  // Remap a persistently-bad region into the disk's spare pool on first
  // failure (at most once per request), then re-issue immediately.
  bool remap = false;
};

struct IoSchedulerStats {
  uint64_t sync_requests = 0;
  uint64_t async_requests = 0;
  uint64_t async_serviced = 0;
  uint64_t async_errors = 0;   // async requests that failed permanently
  uint64_t sync_errors = 0;    // sync requests that failed permanently
  uint64_t retries = 0;        // re-attempts issued by the retry policy
  uint64_t remaps = 0;         // region remaps triggered by persistent faults
  Nanos retry_backoff_time = 0;      // virtual time spent backing off
  Nanos total_sync_wait = 0;         // queueing delay + service for sync requests
  Nanos total_sync_queue_delay = 0;  // device-busy wait alone (start - submit)
  size_t max_queue_depth = 0;        // in-flight + queued async + the arriving request
  uint64_t async_throttle_stalls = 0;   // submissions that hit the bounded queue
  Nanos total_async_throttle_time = 0;  // producer stall charged by back-pressure

  bool operator==(const IoSchedulerStats&) const = default;
};

class IoScheduler : public BlockIo {
 public:
  explicit IoScheduler(DeviceModel* disk, SchedulerKind kind = SchedulerKind::kElevator);

  // Issues a synchronous request from a thread whose cursor reads `now`.
  // Pending async requests are serviced first (they were admitted before the
  // sync arrival). Returns the absolute completion time (>= now); the caller
  // is responsible for advancing its cursor. Returns std::nullopt when the
  // request failed permanently (device fault surviving the retry policy).
  std::optional<Nanos> SubmitSync(const IoRequest& req, Nanos now) override;

  // Queues an asynchronous request submitted at `now`; it consumes device
  // time in the background and is serviced before the next sync request or
  // Drain(). The submission time is kept: a request never occupies the
  // device before it existed, even when a thread with an earlier cursor
  // triggers the service pass.
  //
  // Back-pressure: the background queue is bounded (kMaxPendingAsync, the
  // block layer's nr_requests). A submission that fills it forces a
  // service pass and returns a stall — the producer waits until the device
  // has a free moment (the earliest-idle channel in kMultiQueue mode, the
  // device timeline otherwise). Without this, a producer outrunning the
  // device builds an unbounded backlog whose cost lands as a convoy on
  // whichever unlucky sync request arrives next, instead of on the
  // producer that earned it.
  Nanos SubmitAsync(const IoRequest& req, Nanos now) override;

  // Services all queued async requests. Returns the time the device goes
  // idle (>= now). Idempotent: with nothing pending it just reports the
  // idle time.
  Nanos Drain(Nanos now) override;

  // Absolute virtual time until which the device is busy with already
  // admitted work (the max over every channel in kMultiQueue mode).
  Nanos busy_until() const { return busy_until_; }
  // Per-channel timeline (kMultiQueue); busy_until() for single-queue kinds.
  Nanos channel_busy_until(uint32_t channel) const {
    return channel_busy_.empty() ? busy_until_ : channel_busy_[channel];
  }

  size_t pending_async() const { return pending_.size(); }
  // Admitted requests not yet retired against the last observed time.
  size_t inflight() const { return inflight_.size(); }
  const IoSchedulerStats& stats() const { return stats_; }
  DeviceModel* disk() { return disk_; }
  SchedulerKind kind() const { return kind_; }
  const RetryPolicy& retry_policy() const { return policy_; }
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }

  // Test hook: when set, the LBA of every request is appended in dispatch
  // order (async services and sync submissions alike).
  void set_dispatch_log(std::vector<uint64_t>* log) { dispatch_log_ = log; }

  // Crash-tracking hook (see IoCompletionObserver above).
  void set_completion_observer(IoCompletionObserver* observer) { observer_ = observer; }

  // Degraded-mode hook (see IoWriteErrorSink above).
  void set_write_error_sink(IoWriteErrorSink* sink) { error_sink_ = sink; }

  // Bounded background queue (the block layer's nr_requests, scaled for a
  // queue shared by writeback and readahead). Far above any backlog the
  // HDD workloads build between sync requests — they drain constantly —
  // so only a producer genuinely outrunning the device ever hits it.
  static constexpr size_t kMaxPendingAsync = 1024;

 private:
  // Runs `req` through the retry/remap policy starting at `start`. On
  // success returns the completion time; on permanent failure returns
  // std::nullopt. `*end` is always set to the requester-visible end of the
  // request (last completion or last failed attempt, including backoffs).
  // `*device_end` is the time the device itself goes free: backoff waits are
  // host-side — a real drive serves other queued commands while the host
  // sits out its reissue delay — so they are charged to the requester's
  // latency but credited back to the device timeline.
  std::optional<Nanos> AttemptWithRetry(const IoRequest& req, Nanos start, Nanos* end,
                                        Nanos* device_end);

  // Issues `req` on the device at `start` (sync and async alike): runs the
  // retry policy, commits the device time to the request's timeline, and
  // notifies the completion observer — and, on permanent failure, the
  // write-error sink. Returns the completion time, or std::nullopt.
  std::optional<Nanos> Dispatch(const IoRequest& req, Nanos start);

  // Services pending async requests starting no earlier than `from`: the
  // one dispatch loop for every kind (only kElevator reorders the batch
  // first), each request onto its QueueStart timeline.
  void ServicePending(Nanos from);

  // The busy-until timeline `req` queues on: its channel's in kMultiQueue
  // mode, the single device timeline (busy_until_ itself) otherwise. The
  // only place the scheduler kinds' timelines differ.
  Nanos& TimelineOf(const IoRequest& req);
  // Earliest start for a request arriving at `now` (its timeline's end).
  Nanos QueueStart(const IoRequest& req, Nanos now);
  // Credits the device time of a finished attempt to the request's timeline
  // and keeps busy_until_ the device-wide max.
  void CommitDeviceEnd(const IoRequest& req, Nanos device_end);

  // Retires in-flight completions at or before `now`.
  void RetireCompleted(Nanos now);

  // Pushes a completion time into the in-flight min-heap.
  void AdmitInflight(Nanos completion);

  struct PendingRequest {
    IoRequest req;
    Nanos submitted = 0;  // service starts no earlier than this
  };

  DeviceModel* disk_;
  SchedulerKind kind_;
  RetryPolicy policy_;
  Nanos busy_until_ = 0;
  // Per-channel busy-until timelines; non-empty only in kMultiQueue mode.
  std::vector<Nanos> channel_busy_;
  // One past the last dispatched LBA: the elevator's head position.
  uint64_t head_lba_ = 0;
  std::vector<PendingRequest> pending_;
  std::vector<Nanos> inflight_;  // min-heap of admitted completion times
  std::vector<uint64_t>* dispatch_log_ = nullptr;
  IoCompletionObserver* observer_ = nullptr;
  IoWriteErrorSink* error_sink_ = nullptr;
  IoSchedulerStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_IO_SCHEDULER_H_
