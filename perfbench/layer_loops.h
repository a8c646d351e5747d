// Layer loops: each times one layer's public functions in isolation, driven
// with the traffic shape of the workload it stands for (cache capacity,
// directory size, request mix), so a per-layer change can be measured
// without the rest of the stack. The shape is reported next to the number.
#ifndef PERFBENCH_LAYER_LOOPS_H_
#define PERFBENCH_LAYER_LOOPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {

struct LoopResult {
  std::string name;
  double ns_per_call = 0.0;  // median over the loop's batches
  std::string shape;
};

// Runs every layer loop; `seed` drives the loops' own request streams.
std::vector<LoopResult> RunLayerLoops(uint64_t seed);

// Host time of the three crash-recovery phases, each called directly on run
// 0 of `crash_cell`: SimulateCrashRecovery on the crashed machine,
// ReplayRecoveredPrefix, and FileSystem::CheckConsistency on the replay.
struct RecoveryPhases {
  double crash_s = 0.0;
  double replay_s = 0.0;
  double fsck_s = 0.0;
  bool consistent = false;
  uint64_t watermark = 0;
};
RecoveryPhases TimeRecoveryPhases(const Cell& crash_cell);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_LOOPS_H_
