// DeviceModel: the service-time-oracle interface every block device
// implements (rotational DiskModel, multi-channel SsdModel).
//
// A device answers exactly one question — "what does this request cost,
// issued at this virtual time?" — and owns no queueing: the IoScheduler
// holds the device timeline(s) and calls AccessEx per attempt. What IS
// shared across device kinds, and therefore lives here, is the fault
// machinery the block layer and redundancy layer program against:
//   - an optional seeded FaultPlan (EnableFaults) drawing transient /
//     persistent / slow-I/O verdicts from (config, seed),
//   - legacy injected-error extents (InjectError) behaving like persistent
//     media damage over an explicit sector range,
//   - region remapping into a bounded spare pool distributed across the LBA
//     space (RemapRegion), with remapped requests redirected before any
//     fault evaluation,
//   - the whole-device death latch (IsDead) the array's failure detection
//     keys off.
// Keeping this surface in the base class is what lets FaultPlan, the
// retry/remap policy, scrub and rebuild work unchanged against any device.
//
// Parallelism contract: `channels()` reports how many independent service
// units the device has and `ChannelOf(lba)` names the unit a request lands
// on. A rotational disk is one head assembly (channels() == 1); an SSD
// exposes its flash channels, and the scheduler's kMultiQueue mode keeps a
// busy-until timeline per channel so requests to distinct channels overlap.
#ifndef SRC_SIM_DEVICE_MODEL_H_
#define SRC_SIM_DEVICE_MODEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/sim/fault_plan.h"
#include "src/util/units.h"

namespace fsbench {

enum class DeviceKind : uint8_t { kHdd, kSsd };

// Operation kind for a single device request.
enum class IoKind : uint8_t { kRead, kWrite };

// One device request in file-system blocks' underlying sectors.
struct IoRequest {
  IoKind kind = IoKind::kRead;
  uint64_t lba = 0;           // first sector
  uint32_t sector_count = 0;  // must be > 0
  // Metadata or journal-log payload: a permanent write failure on a meta
  // request is what trips a journaled file system into remount-read-only.
  bool meta = false;
};

// Cumulative counters; cheap to copy. One struct serves every device kind:
// the mechanical fields (seeks, rotation) stay zero on flash, the flash
// fields (GC work) stay zero on rotational disks, and aggregation /
// digesting code handles both uniformly.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  uint64_t seeks = 0;             // requests that moved the head
  uint64_t buffer_hits = 0;       // served from the track buffer
  uint64_t sequential_hits = 0;   // head already in position (streaming)
  Nanos total_service_time = 0;
  Nanos total_seek_time = 0;
  Nanos total_rotation_time = 0;
  Nanos total_transfer_time = 0;
  // Faulted access attempts (any kind), cumulative for the device's life —
  // ClearErrors() removes injected damage but never rewinds this counter.
  uint64_t errors = 0;
  // Mechanical time burned by failed attempts (not part of service time).
  Nanos total_fault_time = 0;
  // Flash-translation-layer work (SsdModel only): pages relocated and
  // erase blocks reclaimed by garbage collection, and the foreground time
  // those reclaims stole from host writes (the write-amplification stall).
  uint64_t gc_page_moves = 0;
  uint64_t gc_erases = 0;
  Nanos total_gc_time = 0;

  bool operator==(const DiskStats&) const = default;
};

// Outcome of one access attempt. Exactly one of `service` (success) or
// `fault != kNone` (failure, with `fail_time` the device time consumed by
// the doomed attempt) holds.
struct AccessResult {
  std::optional<Nanos> service;
  FaultKind fault = FaultKind::kNone;
  bool slow = false;     // completed but fault-plan slow-I/O multiplied it
  Nanos fail_time = 0;   // device time consumed when fault != kNone
};

class DeviceModel {
 public:
  explicit DeviceModel(uint64_t total_sectors);
  virtual ~DeviceModel() = default;

  DeviceModel(const DeviceModel&) = delete;
  DeviceModel& operator=(const DeviceModel&) = delete;

  virtual DeviceKind kind() const = 0;

  // Computes the outcome of `req` issued at virtual time `now` (consulted
  // only by the fault plan's burst windows and the death latch): service
  // time on success, fault kind + consumed device time on failure. Updates
  // device-internal state (head position, FTL mapping) and statistics
  // either way.
  virtual AccessResult AccessEx(const IoRequest& req, Nanos now) = 0;

  // Independent service units. 1 for a rotational disk; the flash channel
  // count for an SSD. The scheduler's kMultiQueue mode keeps one busy-until
  // timeline per channel.
  virtual uint32_t channels() const { return 1; }
  // Which channel `lba` lands on; always 0 for single-channel devices.
  virtual uint32_t ChannelOf(uint64_t lba) const {
    (void)lba;
    return 0;
  }

  // Attaches a seeded fault plan. `seed` feeds the plan's own RNG stream,
  // kept separate from any device-internal stream so a disabled plan is
  // byte-identical to no plan at all.
  void EnableFaults(const FaultPlanConfig& config, uint64_t seed);

  // Sets the remap granularity and spare-pool size without attaching a
  // plan, so spare accounting reflects the configured pool even when every
  // fault rate is zero (EnableFaults applies the same override).
  void ConfigureSpares(uint64_t region_sectors, uint64_t spare_regions);

  // Arms the fault plan's deferred clock at `origin` (see
  // FaultPlanConfig::deferred_clock). No-op without a plan or on an
  // absolute-clock plan.
  void StartFaultClock(Nanos origin);

  // Whole-device failure (FaultPlanConfig::device_kill_time): true once
  // `now` has reached the kill time on the plan's clock. The verdict
  // latches — a device that has died stays dead for every later query
  // regardless of `now` — so the array's lazy detection cannot resurrect it.
  bool IsDead(Nanos now);
  bool dead() const { return dead_latched_; }

  // Whether the region containing `lba` is latent-bad as of `now` and not
  // yet remapped: the scrub's detection probe. Pure query — no RNG draws, no
  // stats, no device-state movement.
  bool RegionLatentBad(uint64_t lba, Nanos now) const;

  // Fault injection: any request overlapping [lba, lba + sector_count)
  // fails until cleared or remapped. The default span is one file-system
  // block (4 KiB), so legacy single-argument call sites poison the whole
  // block they name rather than only its first sector.
  void InjectError(uint64_t lba, uint32_t sector_count = 8);
  // Removes injected damage. Deliberately does NOT reset DiskStats::errors:
  // the counter is the device's lifetime error tally (like a SMART
  // attribute), not a view of the currently-injected set.
  void ClearErrors();

  // Remaps the fault region containing `lba` into the spare pool. Returns
  // true if the region is (now) remapped, false when spares are exhausted.
  bool RemapRegion(uint64_t lba);
  uint64_t remapped_regions() const { return remap_.size(); }
  uint64_t spare_regions_left() const { return spare_regions_ - remap_.size(); }
  uint64_t region_sectors() const { return region_sectors_; }

  const DiskStats& stats() const { return stats_; }
  const FaultPlan* fault_plan() const { return fault_plan_ ? &*fault_plan_ : nullptr; }
  uint64_t total_sectors() const { return total_sectors_; }

 protected:
  // Redirects `lba` through the remap table (the damage lives at the
  // original location; the spare serves cleanly). `*remapped` reports
  // whether a redirect happened. A request straddling the end of the last
  // spare is clamped (pure timing model, no data lives at these addresses).
  uint64_t RedirectLba(uint64_t lba, uint32_t sector_count, bool* remapped) const;

  // Fault verdict for one attempt: the plan's (seeded) decision first, then
  // the legacy injected extents, which behave like persistent media damage.
  // Non-const: the plan's transient verdicts advance its RNG stream.
  FaultDecision DecideFault(uint64_t lba, uint32_t sector_count, Nanos now, bool remapped);

  bool OverlapsInjectedError(uint64_t lba, uint32_t sector_count) const;

  DiskStats& mutable_stats() { return stats_; }

 private:
  uint64_t total_sectors_;

  // Injected persistent damage: start sector -> sector count.
  std::map<uint64_t, uint64_t> error_extents_;
  uint32_t max_error_extent_ = 0;  // longest injected extent, for overlap scans

  std::optional<FaultPlan> fault_plan_;
  // Whole-device death latch (see IsDead).
  bool dead_latched_ = false;
  // Remap granularity/spares; overridden by EnableFaults from the plan's
  // config so plan regions and remap regions coincide.
  uint64_t region_sectors_ = 2048;
  uint64_t spare_regions_ = 64;
  // Bad region index -> start sector of its spare. Lookup-only (never
  // iterated), so hash order cannot leak into results.
  std::unordered_map<uint64_t, uint64_t> remap_;
  // Spare slots already handed out (index into the distributed spare slices).
  std::set<uint64_t> spare_slots_used_;

  DiskStats stats_;
};

}  // namespace fsbench

#endif  // SRC_SIM_DEVICE_MODEL_H_
