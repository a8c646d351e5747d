// benchdiff: noise-aware comparator for the BENCH_*.json trajectory files.
//
// The bench binaries emit flat JSON — {"schema": 1, "bench": "...", "seed":
// N, "results": [{key: value, ...}, ...]} — where every value is a string,
// a bool, or a number. One writer produces it: BenchJson in
// bench/bench_common.h; change the format there and in this parser only.
// benchdiff diffs a freshly produced file against the committed baseline
// and classifies every per-cell metric change:
//
//   - identity fields (strings, plus the numeric sweep keys `threads`,
//     `rate`, `crash_op`) name the cell; two results match when all their
//     identity fields agree. A baseline cell with no match in the current
//     file is a regression; a new cell is a note.
//   - deterministic counters (integer-valued op/block/event counts) get a
//     tight tolerance: the simulator is a pure function of (config, seed),
//     so any drift is a behavior change, in either direction.
//   - higher-is-better rates (ops/s, speedups, hit ratios) fail only when
//     they fall below baseline by more than a looser tolerance; gains are
//     reported as improvements, not failures.
//   - lower-is-better latencies/delays mirror that: only growth fails.
//   - bools and strings outside the identity set must match exactly.
//
// The asymmetric windows are the "noise-aware" part: derived ratios wobble
// legitimately when upstream behavior shifts a little, while raw counters
// must not move at all on an unchanged simulator.
#ifndef TOOLS_BENCHDIFF_BENCHDIFF_H_
#define TOOLS_BENCHDIFF_BENCHDIFF_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fsbench {
namespace benchdiff {

// One scalar from a result object.
struct Value {
  enum class Kind { kNumber, kBool, kString };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  bool boolean = false;
  std::string text;

  bool SameAs(const Value& other) const;
  std::string Render() const;
};

// One element of "results": metrics in file order (insertion-ordered pairs,
// not a hash map, so rendering is deterministic).
struct ResultRow {
  std::vector<std::pair<std::string, Value>> metrics;

  // Identity key: every string field plus the numeric sweep keys, joined in
  // file order. Empty only for a row with no identity fields at all.
  std::string CellKey() const;
  const Value* Find(const std::string& name) const;
};

struct BenchFile {
  int schema = 0;
  std::string bench;
  uint64_t seed = 0;
  std::vector<ResultRow> results;
};

// Parses a BENCH_*.json document. Returns false and sets *error on
// malformed input (trailing garbage, non-flat results, bad literals).
bool ParseBenchFile(const std::string& json, BenchFile* out, std::string* error);

// Reads the file at `path` and parses it. Returns false and sets *error if
// the file cannot be read or parsed.
bool LoadBenchFile(const std::string& path, BenchFile* out, std::string* error);

enum class MetricClass {
  kIdentityKey,   // part of the cell identity, never diffed
  kExactCount,    // deterministic counter: tight two-sided window
  kHigherBetter,  // throughput-like: fails only on a drop
  kLowerBetter,   // latency-like: fails only on growth
  kExactValue,    // bool/string: must match exactly
};

// Name-based classification (the schema carries no type tags). See
// benchdiff.cc for the pattern table.
MetricClass ClassifyMetric(const std::string& name, const Value& value);

// Relative tolerance for a class (0 for kExactValue/kIdentityKey).
double ToleranceFor(MetricClass klass);

enum class DeltaStatus {
  kUnchanged,      // within tolerance
  kImproved,       // moved past tolerance in the good direction (note)
  kRegressed,      // moved past tolerance in the bad direction (failure)
  kMissingCell,    // baseline cell absent from current (failure)
  kMissingMetric,  // baseline metric absent from current cell (failure)
  kNewCell,        // current cell absent from baseline (note)
  kNewMetric,      // current metric absent from baseline cell (note)
};

struct Delta {
  std::string cell;
  std::string metric;
  MetricClass klass = MetricClass::kExactValue;
  DeltaStatus status = DeltaStatus::kUnchanged;
  std::string baseline;
  std::string current;
  double rel_change = 0.0;  // (current - baseline) / |baseline|, numbers only
};

struct DiffReport {
  std::string bench;
  std::vector<Delta> deltas;  // everything outside tolerance, plus notes
  size_t cells_compared = 0;
  size_t metrics_compared = 0;
  size_t regressions = 0;
  size_t improvements = 0;
  size_t notes = 0;

  bool Failed() const { return regressions > 0; }
};

// Compares current against baseline. Seeds must match — comparing runs of
// different seeds is meaningless for a deterministic simulator, so a
// mismatch is reported as a (single) regression.
DiffReport Diff(const BenchFile& baseline, const BenchFile& current);

// Human-readable per-cell delta table plus a one-line verdict.
std::string RenderReport(const DiffReport& report);

}  // namespace benchdiff
}  // namespace fsbench

#endif  // TOOLS_BENCHDIFF_BENCHDIFF_H_
