// Shared helpers for the bench binaries: the paper-testbed machine factory,
// a tiny flag parser (--paper-scale stretches durations to the paper's
// originals; --smoke shrinks them to a seconds-long CI smoke run; --seed
// overrides the base seed; --jobs caps the host-parallel cell pool) and the
// BENCH_*.json writer.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cassert>
#include <charconv>
#include <climits>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/parallel_runner.h"
#include "src/core/workloads/random_read.h"
#include "src/sim/machine.h"
#include "src/util/ascii.h"

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

// The whole of `text` as a decimal: "", "abc", "12x", a sign or an
// overflow is not a number.
inline bool ParseUnsigned(std::string_view text, uint64_t* value) {
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), *value);
  return error == std::errc() && end == text.data() + text.size();
}

// Strict parser: an unknown argument or a malformed number is a hard error
// (a typo like `--paper_scale` or `--seed=12x` must not silently run the
// wrong configuration), printed with the usage line and exiting with 2.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  constexpr const char* kUsage = "usage: %s [--paper-scale] [--smoke] [--seed=N] [--jobs=N]\n";
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* error = nullptr;
    if (std::strcmp(argv[i], "--paper-scale") == 0) {
      args.paper_scale = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
      args.paper_scale = false;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      error = ParseUnsigned(argv[i] + 7, &args.seed) ? nullptr : "invalid number in";
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      uint64_t jobs = 0;
      error = ParseUnsigned(argv[i] + 7, &jobs) && jobs <= INT_MAX ? nullptr : "invalid number in";
      args.jobs = static_cast<int>(jobs);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(kUsage, argv[0]);
      std::exit(0);
    } else {
      error = "unknown argument";
    }
    if (error != nullptr) {
      std::fprintf(stderr, "%s: %s '%s'\n", argv[0], error, argv[i]);
      std::fprintf(stderr, kUsage, argv[0]);
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

// One object of a BENCH_*.json file: its `"key": value` fields in file
// order. The typed appends fix the formats: integers in decimal, bools as
// true/false, Num as %g (fault rates such as 0.005), Fixed as %.<digits>f.
// Keys and Str values are plain names, written without escaping.
class BenchRow {
 public:
  BenchRow& Str(std::string_view key, std::string_view value) {
    assert(value.find_first_of("\"\\") == std::string_view::npos);
    return Add(key, std::string("\"").append(value) += '"');
  }
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  BenchRow& Int(std::string_view key, T value) { return Add(key, std::to_string(value)); }
  BenchRow& Bool(std::string_view key, bool value) { return Add(key, value ? "true" : "false"); }
  BenchRow& Num(std::string_view key, double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%g", value);
    return Add(key, text);
  }
  BenchRow& Fixed(std::string_view key, double value, int digits) {
    return Add(key, FormatDouble(value, digits));
  }
  const std::vector<std::string>& fields() const { return fields_; }

 private:
  BenchRow& Add(std::string_view key, std::string_view value) {
    fields_.push_back(std::string("\"").append(key).append("\": ").append(value));
    return *this;
  }

  std::vector<std::string> fields_;
};

// The one producer of the BENCH_*.json format that tools/benchdiff reads:
// "schema": 1, "bench" and the header() fields one per line, then
// "results", one AddRow() object per line. Benches list keys and values;
// the layout, the separators and the file are the writer's.
class BenchJson {
 public:
  explicit BenchJson(std::string_view bench) { header_.Int("schema", 1).Str("bench", bench); }

  BenchRow& header() { return header_; }
  BenchRow& AddRow() { return rows_.emplace_back(); }  // valid until the next AddRow

  std::string Render() const {
    std::string text = "{\n";
    for (const std::string& field : header_.fields()) {
      text.append("  ").append(field).append(",\n");
    }
    text += "  \"results\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const std::vector<std::string>& fields = rows_[i].fields();
      text += "    {";
      for (size_t f = 0; f < fields.size(); ++f) {
        text.append(f == 0 ? "" : ", ").append(fields[f]);
      }
      text += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    return text += "  ]\n}\n";
  }

  // Writes Render() to `path` and prints "wrote <path>" after a blank line;
  // false, after "cannot write <path>" on stderr, if `path` cannot be opened.
  [[nodiscard]] bool Write(const char* path) const {
    FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return false;
    }
    std::fputs(Render().c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", path);
    return true;
  }

 private:
  BenchRow header_;
  std::vector<BenchRow> rows_;
};

}  // namespace fsbench

#endif  // BENCH_BENCH_COMMON_H_
