// Crash injection and mount-time recovery.
//
// A crash at virtual time T is resolved in three steps:
//   1. The durable frontier: the scheduler assigns completion times to every
//      write the OS had issued (the platter keeps spinning through what was
//      already queued), and the ShadowDisk tells which blocks those writes
//      made durable by T. Everything dirty in the page cache is lost.
//   2. The recovery point: walking the transaction log's commit history in
//      order, a committed transaction survives iff its commit record was
//      durable (checkpointed transactions: iff their home blocks were);
//      the walk stops at the first gap — JBD replay stops at the first bad
//      record — and later commits are the discarded torn tail. The highest
//      surviving operation watermark is the recovered state. A file system
//      without a journal falls back to its last stable point (cache clean,
//      device idle), which is exactly why ext2 loses more.
//   3. The recovery cost: journal replay (sequential log reads + home
//      writes) or, without a journal, a full fsck metadata scan — simulated
//      against a fresh disk to yield mount-time latency and I/O counts, the
//      new benchmark dimensions.
//
// The recovered *state* is reconstructed by deterministic re-execution of
// the first `recovery_watermark` operations on a fresh machine (the
// experiment harness's replay check) — the simulator's bookkeeping
// equivalent of reading the replayed image back from disk.
#ifndef SRC_SIM_RECOVERY_H_
#define SRC_SIM_RECOVERY_H_

#include <cstdint>

#include "src/sim/machine.h"

namespace fsbench {

struct CrashReport {
  Nanos crash_time = 0;
  uint64_t ops_issued = 0;          // ops dispatched before the crash
  uint64_t recovery_watermark = 0;  // ops whose effects survive recovery
  bool used_journal = false;

  // Journal replay accounting (used_journal == true).
  uint64_t durable_txns = 0;   // committed transactions that survive
  uint64_t replayed_txns = 0;  // survivors replayed from the log
  uint64_t torn_txns = 0;      // discarded: commit record not durable / past a gap
  uint64_t replay_log_blocks = 0;   // sequential log reads during replay
  uint64_t replay_home_blocks = 0;  // home-location writes during replay

  // fsck accounting (used_journal == false).
  uint64_t fsck_blocks = 0;  // metadata blocks the offline scan reads

  Nanos recovery_latency = 0;  // simulated mount-time recovery duration

  // What the crash destroyed.
  uint64_t dirty_pages_lost = 0;  // page-cache dirty pages at the crash
  uint64_t volatile_blocks = 0;   // blocks whose last write was in flight

  // Filled by the harness's replay check (experiment.cc): the recovered
  // state passed CheckConsistency.
  bool recovered_consistent = false;

  bool operator==(const CrashReport&) const = default;
};

// Pulls the plug on `machine` at `crash_time` and simulates mount-time
// recovery. Requires Machine::EnableCrashTracking() to have been on for the
// whole run. `ops_issued` is the number of operations dispatched before the
// crash; `stable_watermark` the engine's last all-durable op boundary (the
// no-journal recovery point). Mutates the machine's scheduler (drains it) —
// call only once the run is over.
CrashReport SimulateCrashRecovery(Machine& machine, Nanos crash_time, uint64_t ops_issued,
                                  uint64_t stable_watermark);

}  // namespace fsbench

#endif  // SRC_SIM_RECOVERY_H_
