// Shared helpers for the bench binaries: the paper-testbed machine factory
// and a tiny flag parser (--paper-scale stretches durations to the paper's
// originals; --smoke shrinks them to a seconds-long CI smoke run; --seed
// overrides the base seed; --jobs caps the host-parallel cell pool).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/parallel_runner.h"
#include "src/core/workloads/random_read.h"
#include "src/sim/machine.h"

namespace fsbench {

struct BenchArgs {
  bool paper_scale = false;
  bool smoke = false;  // CI smoke mode: shortest durations that still run every phase
  uint64_t seed = 1;
  // Host threads for cell execution (src/core/parallel_runner.h): the
  // default 0 means every host core. Results are byte-identical for every
  // value — the pool buys wall time, never different numbers.
  int jobs = 0;
};

// Strict parser: an unknown argument is a hard error (a typo like
// `--paper_scale` must not silently run the wrong configuration), printed
// with the usage line and exiting nonzero.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) {
      args.paper_scale = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
      args.paper_scale = false;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      args.jobs = static_cast<int>(std::strtol(argv[i] + 7, nullptr, 10));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--paper-scale] [--smoke] [--seed=N] [--jobs=N]\n", argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument '%s'\n"
                   "usage: %s [--paper-scale] [--smoke] [--seed=N] [--jobs=N]\n",
                   argv[0], argv[i], argv[0]);
      std::exit(2);
    }
  }
  return args;
}

// Duration helper honouring the three scales. Benches with a single main
// duration knob call this; benches with bespoke loops scale by args.smoke
// themselves.
inline Nanos BenchDuration(const BenchArgs& args, Nanos normal, Nanos paper, Nanos smoke) {
  if (args.smoke) {
    return smoke;
  }
  return args.paper_scale ? paper : normal;
}

inline MachineFactory PaperMachine(FsKind kind = FsKind::kExt2,
                                   EvictionPolicyKind eviction = EvictionPolicyKind::kLru) {
  return [kind, eviction](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    config.seed = seed;
    config.eviction = eviction;
    return std::make_unique<Machine>(kind, config);
  };
}

inline WorkloadFactory RandomReadOf(Bytes file_size) {
  return [file_size] {
    RandomReadConfig config;
    config.file_size = file_size;
    return std::make_unique<RandomReadWorkload>(config);
  };
}

// Call after a RunCells barrier, before anything is rendered. Prints one
// "FAILED: <label(i)>: <error>" line on stderr for every cell that threw
// (`errors` is RunCells' per-cell result) and returns whether any did; the
// bench must then exit nonzero instead of writing rows from the failed
// cells' zero-filled slots. A cell body reports a run that came back not ok
// by throwing, so it is caught here too.
[[nodiscard]] inline bool ReportFailedCells(const std::vector<std::string>& errors,
                                            const std::function<std::string(size_t)>& label) {
  bool failed = false;
  for (size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "FAILED: %s: %s\n", label(i).c_str(), errors[i].c_str());
      failed = true;
    }
  }
  return failed;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace fsbench

#endif  // BENCH_BENCH_COMMON_H_
