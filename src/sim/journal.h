// Journal clients over the generic transaction log (txn_log.h).
//
// `Journal` is the interface the VFS drives: meta-data (and, in kJournaled
// mode, data) blocks dirtied by an operation join the running transaction;
// commits happen periodically (the kjournald timer) or synchronously on
// fsync, and the VFS reports home-location writebacks so the log can
// checkpoint. Two clients implement it:
//
//   - JbdJournal (ext3): blocks join the open on-disk transaction directly,
//     and every commit writes descriptor + logged blocks + commit record
//     into the log region — JBD's compound-transaction model.
//   - CilJournal (XFS delayed logging): deltas batch in an in-memory
//     Committed Item List and hit the log only when the CIL is pushed
//     (commit timer, fsync, or size threshold), so repeatedly re-dirtied
//     blocks cost one log copy per push rather than one per transaction.
#ifndef SRC_SIM_JOURNAL_H_
#define SRC_SIM_JOURNAL_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/txn_log.h"
#include "src/sim/types.h"

namespace fsbench {

enum class JournalMode : uint8_t {
  kOrdered,    // meta-data only (ext3 default)
  kJournaled,  // data + meta-data
};

struct JournalConfig {
  JournalMode mode = JournalMode::kOrdered;
  Nanos commit_interval = 5 * kSecond;  // kjournald default
  uint32_t block_sectors = 8;           // journal block size in sectors (4 KiB)
  // Passed through to the transaction log: background checkpoint writeback
  // starts when the log is more than this fraction full.
  double checkpoint_threshold = 0.75;
  // CilJournal only: push the in-memory CIL once it holds this many
  // distinct blocks (0 = push only on the commit timer or fsync).
  uint64_t cil_push_blocks = 1024;
};

struct JournalStats {
  uint64_t commits = 0;
  uint64_t sync_commits = 0;
  uint64_t blocks_logged = 0;
  uint64_t cil_inserts = 0;  // deltas absorbed by the in-memory CIL
  uint64_t cil_pushes = 0;   // CIL contexts pushed into the log

  bool operator==(const JournalStats&) const = default;
};

// Client interface the VFS (and the machine wiring) programs against.
class Journal {
 public:
  explicit Journal(const JournalConfig& config) : config_(config) {}
  virtual ~Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Rebinds the clock the journal reads "now" from. The multi-thread engine
  // points this at the acting thread's cursor around every step, so commit
  // timing follows the thread that triggered it.
  virtual void BindClock(VirtualClock* clock) = 0;

  // Adds a dirtied meta-data page to the running transaction.
  virtual void LogMetadata(const MetaRef& ref) = 0;

  // Adds a data page; no-op unless mode == kJournaled.
  virtual void LogData(const MetaRef& ref) = 0;

  // Commits the running transaction asynchronously if the commit interval
  // has elapsed. Called opportunistically from the VFS on every operation.
  virtual void MaybePeriodicCommit() = 0;

  // Synchronous commit (fsync path): the returned completion time reflects
  // waiting for the journal writes to reach the platter.
  virtual Nanos CommitSync() = 0;

  // The VFS reports every home block that no longer needs checkpointing —
  // written back to its home location, or freed without writeback (the
  // revoke-record role); reclaim frees log space from transactions whose
  // home blocks have all been reported since their commit.
  virtual void NoteHomeWrite(BlockId block) = 0;

  virtual size_t pending_blocks() const = 0;

  // The backing transaction log, for log-space/stall introspection and
  // crash recovery. Null for journal implementations without one (e.g. the
  // retained pre-refactor reference in tests).
  virtual TxnLog* txn_log() { return nullptr; }
  const TxnLog* txn_log() const { return const_cast<Journal*>(this)->txn_log(); }

  // Wires the checkpoint writeback provider (the VFS); attached by the
  // machine after the VFS exists.
  virtual void set_checkpoint_sink(CheckpointSink* sink) { (void)sink; }

  // Aborts the journal (errors=remount-ro): further logging and commits
  // become no-ops. Flag-setting only — the abort may fire re-entrantly from
  // a failed log write inside a commit (see TxnLog::Abort).
  virtual void Abort() {
    aborted_ = true;
    if (TxnLog* log = txn_log(); log != nullptr) {
      log->Abort();
    }
  }
  bool aborted() const { return aborted_; }

  // Crash bookkeeping: workload operations with index <= `op` have fully
  // logged their updates (engine-set at op boundaries in crash mode).
  void SetOpWatermark(uint64_t op) {
    if (TxnLog* log = txn_log(); log != nullptr) {
      log->SetOpWatermark(op);
    }
  }

  const JournalStats& stats() const { return stats_; }
  const JournalConfig& config() const { return config_; }

 protected:
  // Shared commit tail for clients backed by a TxnLog: commits the running
  // transaction (empty = free), keeps the stats, and advances the monotone
  // commit clock — a trailing thread cursor must never regress the
  // periodic-commit timer (the cursors themselves are not monotone across
  // threads).
  Nanos CommitToLog(TxnLog& log, VirtualClock* clock, bool sync);

  JournalConfig config_;
  JournalStats stats_;
  Nanos last_commit_time_ = 0;
  bool aborted_ = false;
};

// Ext3's JBD-flavoured client: every logged block goes straight into the
// open on-disk transaction.
class JbdJournal : public Journal {
 public:
  // `region` is the reserved on-disk area (in blocks of block_sectors) the
  // log wraps around in.
  JbdJournal(BlockIo* io, VirtualClock* clock, Extent region,
             const JournalConfig& config);

  void BindClock(VirtualClock* clock) override {
    clock_ = clock;
    log_.BindClock(clock);
  }
  void LogMetadata(const MetaRef& ref) override { log_.Add(ref); }
  void LogData(const MetaRef& ref) override {
    if (config_.mode == JournalMode::kJournaled) {
      log_.Add(ref);
    }
  }
  void MaybePeriodicCommit() override;
  Nanos CommitSync() override;
  void NoteHomeWrite(BlockId block) override { log_.NoteHomeWrite(block); }
  size_t pending_blocks() const override { return log_.pending_blocks(); }
  TxnLog* txn_log() override { return &log_; }
  void set_checkpoint_sink(CheckpointSink* sink) override { log_.set_checkpoint_sink(sink); }

 private:
  VirtualClock* clock_;
  TxnLog log_;
};

// XFS delayed-logging adapter: an in-memory CIL batches deltas and pushes
// them into the transaction log as one compound transaction.
class CilJournal : public Journal {
 public:
  CilJournal(BlockIo* io, VirtualClock* clock, Extent region,
             const JournalConfig& config);

  void BindClock(VirtualClock* clock) override {
    clock_ = clock;
    log_.BindClock(clock);
  }
  void LogMetadata(const MetaRef& ref) override;
  void LogData(const MetaRef& ref) override {
    if (config_.mode == JournalMode::kJournaled) {
      LogMetadata(ref);
    }
  }
  void MaybePeriodicCommit() override;
  Nanos CommitSync() override;
  void NoteHomeWrite(BlockId block) override { log_.NoteHomeWrite(block); }
  // Deltas still in memory plus anything already staged in the log.
  size_t pending_blocks() const override { return cil_.size() + log_.pending_blocks(); }
  TxnLog* txn_log() override { return &log_; }
  void set_checkpoint_sink(CheckpointSink* sink) override { log_.set_checkpoint_sink(sink); }

  size_t cil_blocks() const { return cil_.size(); }

 private:
  // Moves the CIL into the log's running transaction and commits it.
  Nanos Push(bool sync);

  VirtualClock* clock_;
  TxnLog log_;
  // Determinism audit (detlint R1): cil_set_ is lookup/insert-only, never
  // iterated; the push order that reaches the log is cil_'s insertion order.
  std::vector<MetaRef> cil_;             // insertion order
  std::unordered_set<BlockId> cil_set_;  // dedup across the whole context
};

}  // namespace fsbench

#endif  // SRC_SIM_JOURNAL_H_
