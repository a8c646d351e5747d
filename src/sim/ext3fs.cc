#include "src/sim/ext3fs.h"

namespace fsbench {

Ext3Fs::Ext3Fs(Bytes device_capacity, const FsLayoutParams& params, VirtualClock* clock,
               uint64_t journal_blocks)
    : Ext2Fs(device_capacity, params, clock) {
  ReserveLogRegion(journal_blocks);
}

}  // namespace fsbench
