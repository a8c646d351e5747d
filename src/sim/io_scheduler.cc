#include "src/sim/io_scheduler.h"

#include <algorithm>
#include <functional>

namespace fsbench {

IoScheduler::IoScheduler(DeviceModel* disk, SchedulerKind kind) : disk_(disk), kind_(kind) {
  if (kind_ == SchedulerKind::kMultiQueue) {
    channel_busy_.assign(disk_->channels(), 0);
  }
}

Nanos& IoScheduler::TimelineOf(const IoRequest& req) {
  return channel_busy_.empty() ? busy_until_ : channel_busy_[disk_->ChannelOf(req.lba)];
}

Nanos IoScheduler::QueueStart(const IoRequest& req, Nanos now) {
  return std::max(now, TimelineOf(req));
}

void IoScheduler::CommitDeviceEnd(const IoRequest& req, Nanos device_end) {
  Nanos& timeline = TimelineOf(req);
  timeline = std::max(timeline, device_end);
  busy_until_ = std::max(busy_until_, timeline);
}

void IoScheduler::RetireCompleted(Nanos now) {
  while (!inflight_.empty() && inflight_.front() <= now) {
    std::pop_heap(inflight_.begin(), inflight_.end(), std::greater<>());
    inflight_.pop_back();
  }
}

void IoScheduler::AdmitInflight(Nanos completion) {
  inflight_.push_back(completion);
  std::push_heap(inflight_.begin(), inflight_.end(), std::greater<>());
}

std::optional<Nanos> IoScheduler::AttemptWithRetry(const IoRequest& req, Nanos start, Nanos* end,
                                                   Nanos* device_end) {
  Nanos t = start;
  Nanos backoff_total = 0;
  uint32_t attempt = 1;
  Nanos backoff = policy_.initial_backoff;
  bool tried_remap = false;
  for (;;) {
    const AccessResult result = disk_->AccessEx(req, t);
    if (result.service.has_value()) {
      *end = t + *result.service;
      *device_end = *end - backoff_total;
      return *end;
    }
    t += result.fail_time;  // the doomed attempt occupied the device
    if (result.fault == FaultKind::kPersistent) {
      if (policy_.remap && !tried_remap && disk_->RemapRegion(req.lba)) {
        // The region is remapped into the spare pool; re-issue immediately —
        // the redirected request reads/writes the spare, not the bad media.
        tried_remap = true;
        ++stats_.remaps;
        continue;
      }
      // A medium error is deterministic: the drive already exhausted its
      // internal retries, so re-issuing the same LBAs can only burn device
      // time. Fail fast — remapping is the only policy that helps.
      *end = t;
      *device_end = t - backoff_total;
      return std::nullopt;
    }
    if (attempt >= policy_.max_attempts) {
      *end = t;
      *device_end = t - backoff_total;
      return std::nullopt;
    }
    ++attempt;
    ++stats_.retries;
    stats_.retry_backoff_time += backoff;
    // The backoff advances the request's own timeline but not the device's:
    // the drive is free between the host's reissues, so the queue behind this
    // request reclaims the gap (credited back via *device_end).
    t += backoff;
    backoff_total += backoff;
    backoff = static_cast<Nanos>(static_cast<double>(backoff) * policy_.backoff_multiplier);
  }
}

std::optional<Nanos> IoScheduler::Dispatch(const IoRequest& req, Nanos start) {
  if (dispatch_log_ != nullptr) {
    dispatch_log_->push_back(req.lba);
  }
  Nanos end = start;
  Nanos device_end = start;
  const std::optional<Nanos> completion = AttemptWithRetry(req, start, &end, &device_end);
  head_lba_ = req.lba + req.sector_count;
  // The device frees up at device_end — failed attempts still occupied it,
  // backoff gaps are reclaimed by the queue — while the request itself
  // completes at *completion.
  CommitDeviceEnd(req, device_end);
  if (!completion.has_value()) {
    if (observer_ != nullptr) {
      observer_->OnIoComplete(req, end, /*ok=*/false);
    }
    if (error_sink_ != nullptr && req.kind == IoKind::kWrite) {
      error_sink_->OnWriteError(req, end);
    }
    return std::nullopt;
  }
  AdmitInflight(*completion);
  if (observer_ != nullptr) {
    observer_->OnIoComplete(req, *completion, /*ok=*/true);
  }
  return completion;
}

void IoScheduler::ServicePending(Nanos from) {
  if (pending_.empty()) {
    return;
  }
  if (kind_ == SchedulerKind::kElevator) {
    // C-SCAN: ascending LBA from the current head position, wrapping once at
    // the top. The sort is stable with respect to equal LBAs, preserving
    // submission order for overlapping requests; the rotate starts service
    // at the first request ahead of the head instead of forcing a full
    // stroke back to the lowest queued LBA.
    std::stable_sort(
        pending_.begin(), pending_.end(),
        [](const PendingRequest& a, const PendingRequest& b) { return a.req.lba < b.req.lba; });
    const auto ahead =
        std::find_if(pending_.begin(), pending_.end(),
                     [this](const PendingRequest& p) { return p.req.lba >= head_lba_; });
    std::rotate(pending_.begin(), ahead, pending_.end());
  }
  // The service pass may re-enter the scheduler: a permanent write failure
  // notifies the error sink, and the file system's reaction (journal abort)
  // must not observe a half-serviced queue. Swap the batch out first.
  std::vector<PendingRequest> batch;
  batch.swap(pending_);
  for (const PendingRequest& pending : batch) {
    // Each request starts once its timeline (the device's, or its channel's
    // in kMultiQueue mode) is free — and, causality, never before it was
    // submitted, even when a thread with an earlier cursor triggers the pass.
    const Nanos start = std::max(QueueStart(pending.req, from), pending.submitted);
    ++stats_.async_serviced;
    if (!Dispatch(pending.req, start).has_value()) {
      ++stats_.async_errors;
    }
  }
  if (pending_.empty() && batch.capacity() > pending_.capacity()) {
    // Keep the larger buffer to stay allocation-free in steady state (only
    // when no re-entrant submission repopulated the queue meanwhile).
    batch.clear();
    pending_.swap(batch);
  }
}

std::optional<Nanos> IoScheduler::SubmitSync(const IoRequest& req, Nanos now) {
  ++stats_.sync_requests;
  RetireCompleted(now);
  // The device's queue the instant this request arrives: everything admitted
  // but not yet complete, the async backlog it must wait out, and itself.
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth, inflight_.size() + pending_.size() + 1);
  ServicePending(now);
  const Nanos start = QueueStart(req, now);
  const std::optional<Nanos> completion = Dispatch(req, start);
  if (!completion.has_value()) {
    ++stats_.sync_errors;
    return std::nullopt;
  }
  stats_.total_sync_wait += *completion - now;
  stats_.total_sync_queue_delay += start - now;
  return completion;
}

Nanos IoScheduler::SubmitAsync(const IoRequest& req, Nanos now) {
  ++stats_.async_requests;
  RetireCompleted(now);
  pending_.push_back(PendingRequest{req, now});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, inflight_.size() + pending_.size());
  if (pending_.size() < kMaxPendingAsync) {
    return now;
  }
  // The queue is full: admit the backlog onto the device timeline(s) and
  // throttle the producer until the device has a free moment. In
  // kMultiQueue mode that is the earliest-idle channel (the device can
  // accept new work as soon as any channel drains); single-queue devices
  // wait out the whole timeline. The stall is the producer's to pay —
  // that is the point: a writer outrunning the device must feel it.
  ServicePending(now);
  Nanos free_at = busy_until_;  // the max over every channel in kMultiQueue mode
  for (const Nanos busy : channel_busy_) {
    free_at = std::min(free_at, busy);
  }
  const Nanos admit = std::max(now, free_at);
  if (admit > now) {
    ++stats_.async_throttle_stalls;
    stats_.total_async_throttle_time += admit - now;
  }
  return admit;
}

Nanos IoScheduler::Drain(Nanos now) {
  RetireCompleted(now);
  ServicePending(now);
  return std::max(busy_until_, now);
}

}  // namespace fsbench
