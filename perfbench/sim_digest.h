// sim_digest: a 64-bit FNV-1a digest of every counter and histogram a
// RunResult carries. Two runs of one (config, seed) must digest equal; the
// benchmark checks that across repetitions and between traced and untraced
// repetitions, so host-side probing provably does not perturb the model.
#ifndef PERFBENCH_SIM_DIGEST_H_
#define PERFBENCH_SIM_DIGEST_H_

#include <cstdint>
#include <cstring>

#include "src/core/experiment.h"

namespace perfbench {

class SimDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  template <typename... T>
  void AddAll(T... values) {
    (Add(static_cast<uint64_t>(values)), ...);
  }
  void AddHistogram(const fsbench::LatencyHistogram& h) {
    for (int b = 0; b < fsbench::LatencyHistogram::kBuckets; ++b) {
      Add(h.count(b));
    }
  }

  void AddRun(const fsbench::RunResult& r) {
    Add(r.ok);
    Add(static_cast<uint64_t>(r.error));
    Add(r.ops);
    Add(r.measured_duration);
    AddDouble(r.ops_per_second);
    Add(r.latency.count());
    AddDouble(r.latency.mean());
    AddDouble(r.latency.variance());
    AddDouble(r.latency.min());
    AddDouble(r.latency.max());
    AddHistogram(r.histogram);
    Add(r.throughput_series.size());
    for (const double v : r.throughput_series) {
      AddDouble(v);
    }
    Add(r.timeline_interval);
    Add(r.histogram_slices.size());
    for (const fsbench::LatencyHistogram& h : r.histogram_slices) {
      AddHistogram(h);
    }
    Add(r.histogram_slice);
    AddDouble(r.cache_hit_ratio);

    const fsbench::VfsStats& v = r.vfs_stats;
    AddAll(v.reads, v.writes, v.creates, v.unlinks, v.stats_calls, v.opens, v.fsyncs,
          v.bytes_read, v.bytes_written, v.data_page_hits, v.data_page_misses, v.flash_hits,
          v.demand_requests, v.readahead_pages, v.writeback_pages, v.io_errors, v.write_errors,
          v.meta_write_errors, v.degraded_reads, v.readonly_rejects);
    const fsbench::DiskStats& d = r.disk_stats;
    AddAll(d.reads, d.writes, d.sectors_read, d.sectors_written, d.seeks, d.buffer_hits,
          d.sequential_hits, d.total_service_time, d.total_seek_time, d.total_rotation_time,
          d.total_transfer_time, d.errors, d.total_fault_time, d.gc_page_moves, d.gc_erases,
          d.total_gc_time);
    const fsbench::IoSchedulerStats& s = r.scheduler_stats;
    AddAll(s.sync_requests, s.async_requests, s.async_serviced, s.async_errors, s.sync_errors,
          s.retries, s.remaps, s.retry_backoff_time, s.total_sync_wait, s.total_sync_queue_delay,
          s.max_queue_depth, s.async_throttle_stalls,
          s.total_async_throttle_time);
    Add(r.per_thread_ops.size());
    for (const uint64_t x : r.per_thread_ops) {
      Add(x);
    }
    Add(r.failed_ops);
    const fsbench::FaultSummary& f = r.fault;
    AddAll(f.device_errors, f.transient_faults, f.persistent_faults, f.slow_ios, f.retries,
          f.retry_backoff_time, f.remapped_regions, f.spare_regions_left, f.sync_io_failures,
          f.async_io_failures, f.meta_io_failures, f.journal_aborted,
          f.remounted_ro, f.degraded_reads, f.readonly_rejects,
          f.failed_ops);
    const fsbench::ArraySummary& a = r.array;
    AddAll(a.devices, a.reads, a.writes, a.degraded_reads, a.mirror_rescues, a.lost_stripes,
          a.replica_write_errors, a.device_failures, a.scrub_regions_scanned, a.scrub_detections,
          a.scrub_preempted, a.scrub_repairs, a.scrub_unrepairable, a.rebuilds_started,
          a.rebuilds_completed, a.rebuild_regions_copied, a.data_loss);
    Add(r.crash_report.has_value());
    if (r.crash_report.has_value()) {
      const fsbench::CrashReport& c = *r.crash_report;
      AddAll(c.crash_time, c.ops_issued, c.recovery_watermark,
            c.used_journal, c.durable_txns, c.replayed_txns, c.torn_txns,
            c.replay_log_blocks, c.replay_home_blocks, c.fsck_blocks, c.recovery_latency,
            c.dirty_pages_lost, c.volatile_blocks, c.recovered_consistent);
    }
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_SIM_DIGEST_H_
