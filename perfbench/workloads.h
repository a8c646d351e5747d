// The benchmark's four canonical simulations, each built from a seed.
//
// Every workload is a fixed amount of simulated work (op-count bounded, or
// crashed at a fixed op) so its host cost is comparable across commits and
// seeds; the seed only selects the per-run jitter and the operation streams.
// Why each exists, which layers it stresses and which it bypasses is in
// perfbench/README.md.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/workloads/metadata_mix.h"
#include "src/core/workloads/postmark_like.h"

namespace perfbench {

// One Experiment::Run of a workload (cache_edge_read has one per file size).
struct Cell {
  std::string label;
  fsbench::ExperimentConfig config;
  fsbench::MachineFactory machine;
  fsbench::ThreadedWorkloadFactory workload;
};

struct WorkloadSpec {
  std::string name;
  std::vector<Cell> cells;
};

const std::vector<std::string>& WorkloadNames();

// The cells of workload `name` (empty cells when the name is unknown).
// `base_seed` is the experiment seed derived from the benchmark's --seed;
// `tiny` shrinks every size for the self-test.
WorkloadSpec MakeWorkload(const std::string& name, uint64_t base_seed, bool tiny);

// Machine and workload shapes, shared with the layer loops so each loop
// drives its layer with the traffic of the workload it stands for.
fsbench::MachineConfig CacheEdgeMachine();
fsbench::MachineConfig MetadataMachine();
fsbench::MachineConfig PostmarkHddMachine();
fsbench::MachineConfig MirrorSsdMachine();
fsbench::MetadataMixConfig MetadataShape();
fsbench::PostmarkConfig PostmarkHddShape();
fsbench::PostmarkConfig MirrorCrashShape();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
