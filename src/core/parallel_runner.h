// Host-parallel cell execution for sweep-shaped experiments.
//
// Every run in this repo is a pure function of (config, seed) on a single
// host thread — the determinism contract detlint and the determinism gate
// enforce — which makes a sweep's cells embarrassingly parallel: each cell
// builds its own Machine, owns every byte it touches, and never reads
// another cell's state. RunCells is the one shared way to exploit that: a
// work-stealing pool of std::thread workers executes fn(0..count-1), and
// because each result is placed into its caller-owned slot *by index*, the
// assembled output is byte-identical regardless of the jobs count or the
// order in which cells happen to finish. Host threads parallelise wall
// time only; no virtual-time quantity can observe them.
//
// Nesting: a cell's own body often reaches another RunCells (a sweep cell
// runs an Experiment whose repetitions are themselves routed through the
// pool). Nested calls execute inline on the calling worker, so the host
// thread count stays bounded by the outermost jobs value instead of
// multiplying per level.
#ifndef SRC_CORE_PARALLEL_RUNNER_H_
#define SRC_CORE_PARALLEL_RUNNER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace fsbench {

// Resolves a jobs request: values >= 1 pass through; <= 0 means "use every
// host core" (std::thread::hardware_concurrency, floored at 1).
int ResolveJobs(int jobs);

// Runs fn(i) for every i in [0, count) on up to `jobs` host threads
// (work-stealing: each worker owns a bounded deque seeded round-robin and
// steals from the busiest neighbour when drained). Returns one entry per
// index: empty string = fn(i) returned normally, otherwise the what() of
// the exception it threw — a throwing cell fails alone, it never poisons a
// neighbouring cell or tears down the pool. Deterministic by construction:
// fn must write cell i's result only into slot i of caller-owned storage,
// and then the output cannot depend on jobs or completion order.
//
// With jobs == 1, count <= 1, or when already inside a RunCells worker,
// the tasks execute inline in index order on the calling thread.
//
// The error list is the only trace a thrown cell leaves, so it must not be
// dropped: benches hand it to ReportFailedCells (bench/bench_common.h).
[[nodiscard]] std::vector<std::string> RunCells(size_t count, int jobs,
                                                const std::function<void(size_t)>& fn);

// True while the calling thread is executing a cell body for RunCells (the
// signal nested calls use to degrade to inline execution).
bool InParallelCell();

}  // namespace fsbench

#endif  // SRC_CORE_PARALLEL_RUNNER_H_
