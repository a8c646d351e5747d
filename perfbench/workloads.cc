#include "perfbench/workloads.h"

#include <memory>

#include "src/core/workloads/random_read.h"

namespace perfbench {

using fsbench::ExperimentConfig;
using fsbench::FsKind;
using fsbench::kKiB;
using fsbench::kMiB;
using fsbench::kSecond;
using fsbench::Machine;
using fsbench::MachineConfig;

namespace {

constexpr int kMetadataThreads = 8;
constexpr int kPostmarkHddThreads = 16;
constexpr int kMirrorCrashThreads = 8;

fsbench::MachineFactory Factory(FsKind kind, MachineConfig config) {
  return [kind, config](uint64_t seed) {
    MachineConfig c = config;
    c.seed = seed;
    return std::make_unique<Machine>(kind, c);
  };
}

ExperimentConfig Base(uint64_t base_seed, int runs, int threads) {
  ExperimentConfig config;
  config.runs = runs;
  config.threads = threads;
  config.base_seed = base_seed;
  config.jobs = 1;
  // The op cap, not the virtual window, ends every run: the window is set
  // far past where the cap lands so host work per run is fixed.
  config.duration = 3600 * kSecond;
  config.timeline_interval = 60 * kSecond;
  config.histogram_slice = 600 * kSecond;
  return config;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"cache_edge_read", "metadata_cached",
                                              "postmark_hdd", "ext3_ssd_mirror_crash"};
  return names;
}

MachineConfig CacheEdgeMachine() { return fsbench::PaperTestbedConfig(); }

MachineConfig MetadataMachine() { return fsbench::PaperTestbedConfig(); }

MachineConfig PostmarkHddMachine() {
  MachineConfig config = fsbench::PaperTestbedConfig();
  config.ram = 120 * kMiB;
  return config;
}

MachineConfig MirrorSsdMachine() {
  MachineConfig config = fsbench::PaperTestbedConfig();
  config.ram = 160 * kMiB;
  config.device = fsbench::DeviceKind::kSsd;
  config.journal.mode = fsbench::JournalMode::kOrdered;
  config.array.geometry = fsbench::ArrayGeometry::kMirror;
  config.array.devices = 2;
  config.faults.transient_rate = 1e-4;
  config.retry.max_attempts = 4;
  return config;
}

fsbench::MetadataMixConfig MetadataShape() {
  fsbench::MetadataMixConfig shape;
  shape.dirs = 8;
  shape.files_per_dir = 64;
  return shape;
}

fsbench::PostmarkConfig PostmarkHddShape() {
  fsbench::PostmarkConfig shape;
  shape.initial_files = 900;
  shape.min_size = 512;
  shape.max_size = 64 * kKiB;
  return shape;
}

fsbench::PostmarkConfig MirrorCrashShape() {
  fsbench::PostmarkConfig shape;
  shape.initial_files = 400;
  shape.min_size = 512;
  shape.max_size = 32 * kKiB;
  shape.fsync_every = 8;
  return shape;
}

WorkloadSpec MakeWorkload(const std::string& name, uint64_t base_seed, bool tiny) {
  WorkloadSpec spec{name, {}};
  if (name == "cache_edge_read") {
    // Fig. 1's knee: ~410 MiB of page cache; one file size below, one near
    // and one above it, ten jittered runs each.
    const std::vector<uint64_t> sizes_mib = tiny ? std::vector<uint64_t>{8, 16}
                                                 : std::vector<uint64_t>{400, 416, 432};
    for (const uint64_t mib : sizes_mib) {
      ExperimentConfig config = Base(base_seed, tiny ? 2 : 10, 1);
      config.prewarm = true;
      config.max_ops = tiny ? 200 : 100000;
      fsbench::RandomReadConfig read;
      read.file_size = mib * kMiB;
      spec.cells.push_back(
          {"file_mib=" + std::to_string(mib), config, Factory(FsKind::kExt2, CacheEdgeMachine()),
           [read](int) { return std::make_unique<fsbench::RandomReadWorkload>(read); }});
    }
  } else if (name == "metadata_cached") {
    ExperimentConfig config = Base(base_seed, tiny ? 2 : 4, kMetadataThreads);
    config.prewarm = true;
    config.max_ops = tiny ? 500 : 500000;
    fsbench::MetadataMixConfig shape = MetadataShape();
    if (tiny) {
      shape.dirs = 2;
      shape.files_per_dir = 8;
    }
    spec.cells.push_back({"threads=8", config, Factory(FsKind::kExt2, MetadataMachine()),
                          fsbench::MtMetadataMixFactory(shape)});
  } else if (name == "postmark_hdd") {
    ExperimentConfig config = Base(base_seed, tiny ? 2 : 4, kPostmarkHddThreads);
    config.prewarm = true;
    config.max_ops = tiny ? 300 : 80000;
    fsbench::PostmarkConfig shape = PostmarkHddShape();
    if (tiny) {
      shape.initial_files = 20;
    }
    spec.cells.push_back({"threads=16", config, Factory(FsKind::kExt2, PostmarkHddMachine()),
                          fsbench::MtPostmarkFactory(shape)});
  } else if (name == "ext3_ssd_mirror_crash") {
    ExperimentConfig config = Base(base_seed, tiny ? 2 : 8, kMirrorCrashThreads);
    config.prewarm = true;
    config.crash = fsbench::CrashScenario{tiny ? 100u : 8000u, 0, /*replay_check=*/true};
    fsbench::PostmarkConfig shape = MirrorCrashShape();
    if (tiny) {
      shape.initial_files = 20;
    }
    spec.cells.push_back({"threads=8", config, Factory(FsKind::kExt3, MirrorSsdMachine()),
                          fsbench::MtPostmarkFactory(shape)});
  }
  return spec;
}

}  // namespace perfbench
