// Report rendering: the "entire graph" presentation the paper demands,
// in plain ASCII (plus CSV blocks for external plotting). One renderer per
// figure/table shape the paper uses.
#ifndef SRC_CORE_REPORT_H_
#define SRC_CORE_REPORT_H_

#include <string>
#include <vector>

#include "src/core/comparison.h"
#include "src/core/histogram.h"
#include "src/core/nano_suite.h"
#include "src/core/self_scaling.h"
#include "src/core/stats.h"
#include "src/util/units.h"

namespace fsbench {

// Figure 1 shape: throughput and relative stddev per file size.
struct SweepRow {
  Bytes file_size = 0;
  Summary throughput;
  double cache_hit_ratio = 0.0;
};
std::string RenderSweepTable(const std::vector<SweepRow>& rows);

// Figure 3 shape: one log2 latency histogram with paper-style axis labels.
std::string RenderHistogram(const LatencyHistogram& histogram, int bar_width = 50);

// Figure 2 shape: one or more throughput series over time.
std::string RenderTimelines(const std::vector<std::string>& names,
                            const std::vector<std::vector<double>>& series, Nanos interval);

// Figure 4 shape: histogram evolution over time as a density grid
// (rows = time slices, columns = log2 buckets).
std::string RenderHistogramTimeline(const std::vector<LatencyHistogram>& slices, Nanos slice);

// Figure 1 zoom shape: the transition report.
std::string RenderTransition(const TransitionResult& transition, const std::string& param_unit,
                             double param_scale);

std::string RenderNanoSuite(const std::vector<NanoResult>& results);

std::string RenderComparison(const ComparisonReport& report);

// "[lo, hi]": the 95% confidence interval of the mean, `precision` digits.
std::string FormatCi95(const Summary& s, int precision);

// Machine-readable companions.
std::string CsvTimelines(const std::vector<std::string>& names,
                         const std::vector<std::vector<double>>& series, Nanos interval);
std::string CsvHistogram(const LatencyHistogram& histogram);
std::string CsvSweep(const std::vector<SweepRow>& rows);

}  // namespace fsbench

#endif  // SRC_CORE_REPORT_H_
