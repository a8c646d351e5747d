// Ext3-like file system: ext2 layout plus a JBD-flavoured write-ahead
// journal (JbdJournal over the generic transaction log — see txn_log.h).
// Meta-data dirtied by namespace and allocation operations is logged;
// commits are periodic (kjournald) or synchronous on fsync, and checkpoint
// writeback reclaims log space (stalling commits when the log fills — the
// fsync cliff). Reads behave like ext2 with slightly higher per-op CPU
// (transaction bookkeeping) and a smaller read-around cluster, which slows
// cache warm-up relative to ext2 (see bench/fig2_warmup_timeline).
#ifndef SRC_SIM_EXT3FS_H_
#define SRC_SIM_EXT3FS_H_

#include "src/sim/ext2fs.h"

namespace fsbench {

class Ext3Fs : public Ext2Fs {
 public:
  // Reserves `journal_blocks` file-system blocks for the journal region.
  Ext3Fs(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock,
         uint64_t journal_blocks = 8192);

  const char* name() const override { return "ext3"; }
  FsKind kind() const override { return FsKind::kExt3; }

  ReadaheadConfig readahead_config() const override {
    return ReadaheadConfig{ReadaheadKind::kAdaptive, /*fixed_pages=*/8, /*min_window=*/4,
                           /*max_window=*/32, /*random_cluster=*/1};
  }

  Nanos per_op_cpu_overhead() const override { return 2 * kMicrosecond; }

  // errors=remount-ro (the distro default): a lost metadata or log write
  // aborts the journal and freezes the namespace read-only.
  bool RemountRoOnWriteError() const override { return true; }
};

}  // namespace fsbench

#endif  // SRC_SIM_EXT3FS_H_
