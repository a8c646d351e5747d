// Abstract simulated file system plus the shared namespace machinery.
//
// A FileSystem is pure bookkeeping: it maintains inodes, directories and the
// block allocator, and *describes* the I/O an operation needs via MetaIo —
// which cacheable pages must be read to resolve it and which are dirtied.
// The VFS is the single component that turns MetaIo into page-cache lookups,
// disk requests and virtual time. This split keeps per-FS differences where
// they belong: layout policy, mapping structure, directory cost model,
// journaling, readahead aggressiveness and CPU overhead.
#ifndef SRC_SIM_FILESYSTEM_H_
#define SRC_SIM_FILESYSTEM_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/block_allocator.h"
#include "src/sim/clock.h"
#include "src/sim/directory.h"
#include "src/sim/eviction_policy.h"
#include "src/sim/inode.h"
#include "src/sim/inode_table.h"
#include "src/sim/journal.h"
#include "src/sim/readahead.h"
#include "src/sim/small_vec.h"
#include "src/sim/types.h"

namespace fsbench {

// The I/O plan for one file-system operation. (MetaRef, the element type,
// lives in types.h so the transaction log can name it too.)
//
// The lists are small-inline-capacity buffers (src/sim/small_vec.h): the
// common operations fit inline, and anything larger (full-directory negative
// scans, big truncates) spills into storage that a reused instance retains —
// the VFS threads one scratch MetaIo through every call, so the steady-state
// operation pipeline never heap-allocates here. Inline sizes are chosen from
// the per-FS worst cases on the hit path: MapPage charges at most 4 reads
// (inode table + triple-indirect chain), Create at most ~7 writes.
struct MetaIo {
  SmallVec<MetaRef, 12> reads;         // must be resident or read from disk
  SmallVec<MetaRef, 8> writes;         // dirtied (journaled on ext3)
  SmallVec<MetaRef, 4> invalidations;  // cache entries to drop (unlink, truncate)
  SmallVec<InodeId, 2> drop_files;     // whole files whose pages must be dropped

  void AddMetaRead(BlockId block) { reads.push_back({kMetaInode, block, block}); }
  void AddMetaWrite(BlockId block) { writes.push_back({kMetaInode, block, block}); }

  // Empties all four lists while keeping their spilled storage for reuse.
  void Reset() {
    reads.clear();
    writes.clear();
    invalidations.clear();
    drop_files.clear();
  }
};

// Geometry/layout parameters common to the simulated file systems.
struct FsLayoutParams {
  Bytes block_size = 4 * kKiB;
  uint64_t group_blocks = 32768;        // 128 MiB block groups
  uint64_t group_header_blocks = 256;   // superblock copy + bitmaps + inode table
  uint64_t inode_table_blocks = 128;    // within the header; 16 inodes per block
  uint64_t inodes_per_block = 16;
  uint64_t dir_entries_per_block = 64;  // ~64 B per dirent
};

enum class FsKind : uint8_t { kExt2, kExt3, kXfs };

const char* FsKindName(FsKind kind);

class FileSystem {
 public:
  // `clock` may be null (timestamps stay 0); used only for mtime/ctime.
  FileSystem(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock);

  // Rebinds the clock timestamps are drawn from. The multi-thread engine
  // points this at the acting thread's cursor around every step so mtime/
  // ctime reflect the thread that performed the operation.
  void BindClock(VirtualClock* clock) { clock_ = clock; }
  virtual ~FileSystem() = default;

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  virtual const char* name() const = 0;
  virtual FsKind kind() const = 0;

  // --- Namespace operations (shared implementation) ---
  //
  // Names are string_views so path components can be passed straight out of
  // the path being resolved — no per-component std::string copy.

  // Creates a file or directory under `parent`. Charges a full-directory
  // negative lookup plus dirent/bitmap/inode-table writes into `io`.
  FsResult<InodeId> Create(InodeId parent, std::string_view name, FileType type, MetaIo* io);

  // Removes a name; frees the inode and its blocks when the last link drops.
  FsStatus Unlink(InodeId parent, std::string_view name, MetaIo* io);

  // Resolves a name; charges the directory-scan cost model. (Defined inline
  // below: one call per path component, the hottest namespace entry point.)
  FsResult<InodeId> Lookup(InodeId parent, std::string_view name, MetaIo* io);

  FsResult<FileAttr> Stat(InodeId ino, MetaIo* io);  // inline below: per-op hot

  FsResult<std::vector<std::string>> ReadDir(InodeId dir, MetaIo* io);

  // Grows or shrinks the file size; shrinking frees whole pages past the new
  // end and invalidates them.
  FsStatus SetSize(InodeId ino, Bytes new_size, MetaIo* io);

  // --- Data mapping (per-FS) ---

  // Device block backing page `page_index` for reads. A missing mapping
  // within the file size is a hole: kOk with value kInvalidBlock.
  FsResult<BlockId> MapPage(InodeId ino, uint64_t page_index, MetaIo* io);

  // Ensures page `page_index` has a backing block (allocating one according
  // to the FS's layout policy) and returns it.
  FsResult<BlockId> AllocatePage(InodeId ino, uint64_t page_index, MetaIo* io);

  // Set-up only: allocates pages [0, pages) of a file that has none yet,
  // with the same blocks, allocator stats and status as calling AllocatePage
  // for each page in order. `io` is scratch: its meta I/O is never charged
  // and its contents on return are unspecified. The default does exactly
  // that loop; file systems override it to allocate a run at a time.
  virtual FsStatus AllocateFilePages(InodeId ino, uint64_t pages, MetaIo* io);

  // Set-up only: maps the run of pages from `first_page` that share one
  // meta-read set, at most blocks.size() (>= 1) of them, and returns its
  // length (>= 1). That set — the reads MapPage charges for every page of
  // the run — is appended to `io->reads` once, and the front of `blocks`
  // receives each page's block, kInvalidBlock for a hole. The default maps
  // the single page `first_page` with MapPage; file systems override it to
  // map a run at a time.
  virtual FsResult<uint64_t> MapPageRun(InodeId ino, uint64_t first_page,
                                        std::span<BlockId> blocks, MetaIo* io);

  // --- Per-FS behaviour knobs ---

  // The journal needs the I/O scheduler, which exists only after the machine
  // is assembled; journaled file systems get one attached post-construction
  // (null for ext2). Ownership lives here so the VFS's per-op journal probe
  // is one member load, not a virtual call.
  void AttachJournal(std::unique_ptr<Journal> journal) { journal_ = std::move(journal); }
  Journal* journal() { return journal_.get(); }
  const Journal* journal() const { return journal_.get(); }

  virtual ReadaheadConfig readahead_config() const = 0;
  // Extra per-operation CPU cost (journaling bookkeeping etc.).
  virtual Nanos per_op_cpu_overhead() const { return 0; }

  // --- Device-fault error semantics ---

  // Called by the VFS when a metadata read or a metadata/log write failed
  // permanently at the block layer (the retry policy was exhausted).
  // Journaled file systems react with errors=remount-ro: the journal is
  // aborted and the fs refuses further mutations with kReadOnly; ext2
  // soldiers on and merely counts the failure.
  void NoteMetaIoFailure();

  // Policy hook behind NoteMetaIoFailure. Default: remount read-only iff a
  // journal is attached (atomicity is gone once its writes are lost).
  virtual bool RemountRoOnWriteError() const { return journal_ != nullptr; }

  bool read_only() const { return read_only_; }
  bool journal_aborted() const { return journal_ != nullptr && journal_->aborted(); }
  uint64_t meta_io_failures() const { return meta_io_failures_; }

  // --- Introspection / fsck ---

  // fsck-lite: every mapped block allocated exactly once, dirents point at
  // live inodes, size/allocated accounting consistent. On failure `error`
  // describes the first violation.
  bool CheckConsistency(std::string* error) const;

  // Appends every block an offline metadata scan (fsck passes 1+2) must
  // read: group bitmaps and inode tables, each inode's mapping meta blocks
  // (indirect / extent nodes), and directory data blocks. Drives the
  // no-journal crash-recovery cost model (see src/sim/recovery.h).
  void AppendMetadataBlocks(std::vector<BlockId>* blocks) const;

  const Inode* FindInode(InodeId ino) const;
  const Directory* FindDir(InodeId ino) const;
  Bytes block_size() const { return params_.block_size; }
  uint32_t sectors_per_block() const { return static_cast<uint32_t>(params_.block_size / 512); }
  const FsLayoutParams& layout() const { return params_; }
  const BlockAllocator& allocator() const { return alloc_; }
  uint64_t live_inode_count() const { return inodes_.size(); }

  // The mkfs-reserved journal (ext3) or log (XFS) region; empty for ext2.
  const Extent& journal_region() const { return journal_region_; }
  // kNoSpace when mkfs could not place the journal/log region (see
  // ReserveLogRegion); such a file system gets no journal, and
  // SimEngine::Prepare fails any run on it with this status.
  FsStatus mkfs_status() const { return mkfs_status_; }

 protected:
  // --- Layout/cost policy hooks ---

  // Inode-reference forms of the data-mapping API; the public InodeId
  // wrappers resolve the inode once and dispatch here, and internal callers
  // that already hold the inode (directory cost charging, dir-block growth)
  // skip the redundant table probe.
  virtual FsResult<BlockId> MapPageFor(const Inode& inode, uint64_t page_index, MetaIo* io) = 0;
  virtual FsResult<BlockId> AllocatePageFor(Inode& inode, uint64_t page_index, MetaIo* io) = 0;

  // Charges the meta reads a directory lookup needs to find `name`
  // (ext2/3: linear scan; xfs: btree path). `slot` is the entry's slot for a
  // positive lookup, std::nullopt for a negative one.
  virtual void ChargeDirLookup(const Inode& dir_inode, const Directory& dir,
                               std::string_view name, std::optional<uint64_t> slot,
                               MetaIo* io);

  // The linear-scan cost model shared by the base ChargeDirLookup and
  // concrete overrides: a positive lookup reads directory blocks up to and
  // including the entry's block, a negative one reads all of them. `map` is
  // the page mapper — overrides pass their own MapPageFor so the per-block
  // call resolves statically instead of through the vtable.
  template <typename MapFn>
  void ChargeLinearDirScan(const Inode& dir_inode, const Directory& dir,
                           std::optional<uint64_t> slot, MetaIo* io, MapFn&& map) {
    const uint64_t epb = params_.dir_entries_per_block;
    const uint64_t total_blocks = dir.slot_count() == 0 ? 0 : CeilDiv(dir.slot_count(), epb);
    const uint64_t last_block = !slot.has_value()
                                    ? total_blocks
                                    : std::min<uint64_t>(*slot / epb + 1, total_blocks);
    for (uint64_t page = 0; page < last_block; ++page) {
      const FsResult<BlockId> mapping = map(dir_inode, page, io);
      if (mapping.ok() && mapping.value != kInvalidBlock) {
        io->reads.push_back({dir_inode.ino, page, mapping.value});
      }
    }
  }

  // Placement group for a new inode.
  virtual uint64_t PickGroup(const Inode& parent, FileType type);

  // Frees every block of `inode` (data + mapping meta), recording bitmap
  // writes and page invalidations.
  virtual void FreeAllBlocks(Inode& inode, MetaIo* io) = 0;

  // Frees pages >= first_page (truncate support).
  virtual void FreePagesFrom(Inode& inode, uint64_t first_page, MetaIo* io) = 0;

  // Appends every device block owned by `inode` (data + meta) for fsck.
  virtual void AppendOwnedBlocks(const Inode& inode, std::vector<BlockId>* blocks) const = 0;

  // --- Shared helpers for subclasses ---

  Inode* MutableInode(InodeId ino);
  Directory* MutableDir(InodeId ino);
  Nanos Now() const;

  // Inode-table block holding `ino` (meta read on any inode access).
  BlockId InodeTableBlock(const Inode& inode) const;
  BlockId GroupStart(uint64_t group) const { return group * params_.group_blocks; }
  BlockId BlockBitmapBlock(uint64_t group) const { return GroupStart(group) + 1; }
  BlockId InodeBitmapBlock(uint64_t group) const { return GroupStart(group) + 2; }
  // First inode-table block (after superblock copy + the two bitmaps).
  BlockId InodeTableStart(uint64_t group) const { return GroupStart(group) + 3; }
  // First block usable for data in `group`.
  BlockId GroupDataStart(uint64_t group) const {
    return GroupStart(group) + params_.group_header_blocks;
  }

  // Ensures the directory has capacity for `slot`; allocates dir data pages
  // via AllocatePage as needed. Returns the dir data block of the slot.
  FsResult<BlockId> EnsureDirSlotBlock(Inode& dir_inode, uint64_t slot, MetaIo* io);

  // Mkfs-time journal/log placement shared by ext3 and XFS: `blocks` right
  // after group 0's header. A region that does not fit in group 0's data
  // area (it would overrun later groups' headers or the device) reserves
  // nothing and sets mkfs_status() to kNoSpace.
  void ReserveLogRegion(uint64_t blocks);

  // Allocates a fresh inode in a group chosen by PickGroup, charging the
  // inode bitmap + table writes. Returns null on inode exhaustion.
  Inode* AllocateInode(const Inode& parent, FileType type, MetaIo* io);

  FsLayoutParams params_;
  VirtualClock* clock_;
  BlockAllocator alloc_;
  // Directory contents live inside their Inode (Inode::dir); there is no
  // separate directory table to probe.
  InodeTable inodes_;
  std::vector<uint64_t> group_inode_counts_;
  std::vector<uint64_t> group_local_inodes_;  // next inode-table slot per group
  InodeId next_ino_ = kRootInode;
  uint64_t next_dir_group_ = 0;
  uint64_t reserved_blocks_ = 0;  // mkfs-reserved (headers, journal) for fsck accounting
  std::unique_ptr<Journal> journal_;
  bool read_only_ = false;         // entered on meta failure when the policy says so
  uint64_t meta_io_failures_ = 0;  // permanent metadata/log I/O failures observed
  Extent journal_region_;
  FsStatus mkfs_status_ = FsStatus::kOk;

 private:
  void InitGroups();
};

inline FsResult<InodeId> FileSystem::Lookup(InodeId parent, std::string_view name, MetaIo* io) {
  Inode* parent_inode = inodes_.Find(parent);
  if (parent_inode == nullptr) {
    return FsResult<InodeId>::Error(FsStatus::kNotFound);
  }
  if (parent_inode->type != FileType::kDirectory) {
    return FsResult<InodeId>::Error(FsStatus::kNotDir);
  }
  const Directory* dir = parent_inode->dir.get();
  const std::optional<Directory::Entry> entry = dir->Find(name);
  if (!entry.has_value()) {
    ChargeDirLookup(*parent_inode, *dir, name, std::nullopt, io);
    return FsResult<InodeId>::Error(FsStatus::kNotFound);
  }
  ChargeDirLookup(*parent_inode, *dir, name, entry->slot, io);
  return FsResult<InodeId>::Ok(entry->ino);
}

inline FsResult<FileAttr> FileSystem::Stat(InodeId ino, MetaIo* io) {
  const Inode* inode = inodes_.Find(ino);
  if (inode == nullptr) {
    return FsResult<FileAttr>::Error(FsStatus::kNotFound);
  }
  io->AddMetaRead(inode->itable_block);
  FileAttr attr;
  attr.ino = inode->ino;
  attr.type = inode->type;
  attr.size = inode->size;
  attr.allocated_blocks = inode->allocated_blocks;
  attr.link_count = inode->link_count;
  attr.mtime = inode->mtime;
  attr.ctime = inode->ctime;
  return FsResult<FileAttr>::Ok(attr);
}

}  // namespace fsbench

#endif  // SRC_SIM_FILESYSTEM_H_
