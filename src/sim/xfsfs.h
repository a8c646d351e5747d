// XFS-like file system: extent-mapped inodes with chunked contiguous
// allocation (a cheap stand-in for delayed allocation), btree directories
// whose lookup cost is logarithmic rather than linear, and aggressive
// readahead. Journal I/O is modeled through the delayed-logging adapter
// (CilJournal over the generic transaction log): meta-data deltas batch in
// an in-memory CIL and hit the reserved log region only when the CIL is
// pushed, so metadata-churn workloads see far fewer log writes than ext3's
// per-interval JBD commits.
#ifndef SRC_SIM_XFSFS_H_
#define SRC_SIM_XFSFS_H_

#include <optional>
#include <string_view>
#include <vector>

#include "src/sim/filesystem.h"

namespace fsbench {

class XfsFs : public FileSystem {
 public:
  // Reserves `log_blocks` file-system blocks for the on-disk log.
  XfsFs(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock,
        uint64_t log_blocks = 8192);

  const char* name() const override { return "xfs"; }
  FsKind kind() const override { return FsKind::kXfs; }

  ReadaheadConfig readahead_config() const override {
    // Aggressive: larger sequential window and a bigger read-around cluster.
    return ReadaheadConfig{ReadaheadKind::kAdaptive, /*fixed_pages=*/16, /*min_window=*/8,
                           /*max_window=*/64, /*random_cluster=*/6};
  }

  Nanos per_op_cpu_overhead() const override { return 1 * kMicrosecond; }

  // XFS shuts down the filesystem on log I/O errors (xfs_force_shutdown);
  // modeled as the same remount-read-only degraded mode.
  bool RemountRoOnWriteError() const override { return true; }

  // Extents held inline in the inode before the btree kicks in.
  static constexpr size_t kInlineExtents = 4;
  // Extent records per btree node block.
  static constexpr size_t kExtentsPerNode = 128;
  // Max blocks allocated per extent grab (chunked allocation).
  static constexpr uint64_t kAllocChunk = 16;

 protected:
  FsResult<BlockId> MapPageFor(const Inode& inode, uint64_t page_index, MetaIo* io) override;
  FsResult<BlockId> AllocatePageFor(Inode& inode, uint64_t page_index, MetaIo* io) override;
  void ChargeDirLookup(const Inode& dir_inode, const Directory& dir, std::string_view name,
                       std::optional<uint64_t> slot, MetaIo* io) override;
  void FreeAllBlocks(Inode& inode, MetaIo* io) override;
  void FreePagesFrom(Inode& inode, uint64_t first_page, MetaIo* io) override;
  void AppendOwnedBlocks(const Inode& inode, std::vector<BlockId>* blocks) const override;

 private:
  // Index into inode.extents of the extent containing `page`, if any.
  static std::optional<size_t> FindExtent(const Inode& inode, uint64_t page);

  // Ensures btree node blocks exist for the current extent count.
  FsStatus EnsureExtentNodes(Inode& inode, MetaIo* io);
};

}  // namespace fsbench

#endif  // SRC_SIM_XFSFS_H_
