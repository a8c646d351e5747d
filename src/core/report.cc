#include "src/core/report.h"

#include <algorithm>
#include <sstream>

#include "src/core/modality.h"
#include "src/util/ascii.h"

namespace fsbench {

std::string RenderSweepTable(const std::vector<SweepRow>& rows) {
  AsciiTable table;
  table.SetHeader({"file size", "ops/s (mean)", "stddev", "rel stddev %", "95% CI half",
                   "hit ratio"});
  for (const SweepRow& row : rows) {
    table.AddRow({FormatBytes(row.file_size), FormatDouble(row.throughput.mean, 1),
                  FormatDouble(row.throughput.stddev, 1),
                  FormatDouble(row.throughput.rel_stddev_pct, 2),
                  FormatDouble(row.throughput.ci95_half_width, 1),
                  FormatDouble(row.cache_hit_ratio, 3)});
  }
  return table.Render();
}

std::string RenderHistogram(const LatencyHistogram& histogram, int bar_width) {
  std::ostringstream out;
  const int first = std::max(0, histogram.FirstBucket() - 1);
  const int last =
      histogram.LastBucket() < 0 ? 0 : std::min(LatencyHistogram::kBuckets - 1,
                                                histogram.LastBucket() + 1);
  double max_share = 0.0;
  for (int b = 0; b <= LatencyHistogram::kBuckets - 1; ++b) {
    max_share = std::max(max_share, histogram.SharePct(b));
  }
  out << "  bucket  latency>=   % ops\n";
  for (int b = first; b <= last; ++b) {
    const double share = histogram.SharePct(b);
    char line[64];
    std::snprintf(line, sizeof(line), "  %5d  %9s  %5.1f  ", b,
                  FormatNanos(LatencyHistogram::BucketLowerBound(b)).c_str(), share);
    out << line << AsciiBar(share, max_share, bar_width) << '\n';
  }
  const std::vector<Mode> modes = DetectModes(histogram);
  out << "  modes: " << modes.size();
  for (const Mode& mode : modes) {
    out << "  [peak 2^" << mode.peak_bucket << "ns ("
        << FormatNanos(LatencyHistogram::BucketLowerBound(mode.peak_bucket)) << "), "
        << FormatDouble(mode.mass, 1) << "% of ops]";
  }
  out << '\n';
  return out.str();
}

std::string RenderTimelines(const std::vector<std::string>& names,
                            const std::vector<std::vector<double>>& series, Nanos interval) {
  AsciiTable table;
  std::vector<std::string> header{"t (s)"};
  header.insert(header.end(), names.begin(), names.end());
  table.SetHeader(std::move(header));
  size_t longest = 0;
  for (const auto& s : series) {
    longest = std::max(longest, s.size());
  }
  for (size_t i = 0; i < longest; ++i) {
    std::vector<std::string> row{
        FormatDouble(ToSeconds(interval) * static_cast<double>(i + 1), 0)};
    for (const auto& s : series) {
      row.push_back(i < s.size() ? FormatDouble(s[i], 0) : "");
    }
    table.AddRow(std::move(row));
  }
  return table.Render();
}

std::string RenderHistogramTimeline(const std::vector<LatencyHistogram>& slices, Nanos slice) {
  // Density grid: rows = time slices, columns = buckets 8..28 (covering
  // 256ns .. 268ms, the paper's interesting range).
  constexpr int kLo = 8;
  constexpr int kHi = 28;
  static const char kDensity[] = " .:-=+*#%@";
  std::ostringstream out;
  out << "  time(s) | latency buckets 2^" << kLo << "ns .. 2^" << kHi
      << "ns (each column one bucket; darker = more ops)\n";
  for (size_t i = 0; i < slices.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof(label), "  %6.0f  | ",
                  ToSeconds(slice) * static_cast<double>(i + 1));
    out << label;
    for (int b = kLo; b <= kHi; ++b) {
      const double share = slices[i].SharePct(b);
      const int level =
          std::min<int>(9, static_cast<int>(share / 100.0 * 9.99 * 2.0));  // saturate at 50%
      out << kDensity[level];
    }
    out << '\n';
  }
  return out.str();
}

std::string RenderTransition(const TransitionResult& transition, const std::string& param_unit,
                             double param_scale) {
  std::ostringstream out;
  if (!transition.found) {
    out << "  no transition found\n";
    return out.str();
  }
  out << "  transition bracket: [" << FormatDouble(transition.param_lo / param_scale, 2) << ", "
      << FormatDouble(transition.param_hi / param_scale, 2) << "] " << param_unit
      << "  (width " << FormatDouble(transition.width() / param_scale, 2) << " " << param_unit
      << ")\n";
  out << "  metric across the cliff: " << FormatDouble(transition.metric_lo, 1) << " -> "
      << FormatDouble(transition.metric_hi, 1) << "  (factor "
      << FormatDouble(transition.drop_factor, 1) << "x)\n";
  out << "  evaluations: " << transition.samples.size() << "\n";
  return out.str();
}

std::string RenderNanoSuite(const std::vector<NanoResult>& results) {
  AsciiTable table;
  table.SetHeader({"dimension", "nano-benchmark", "value", "unit", "rel stddev %", "note"});
  Dimension last = Dimension::kIo;
  bool first_row = true;
  for (const NanoResult& result : results) {
    if (!first_row && result.dimension != last) {
      table.AddSeparator();
    }
    first_row = false;
    last = result.dimension;
    table.AddRow({DimensionName(result.dimension), result.name, FormatDouble(result.value, 2),
                  result.unit, FormatDouble(result.across_runs.rel_stddev_pct, 1), result.note});
  }
  return table.Render();
}

std::string FormatCi95(const Summary& s, int precision) {
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict overlap
  // inside `"literal" + std::string` chains.
  std::string interval = "[";
  interval += FormatDouble(s.ci95_lo(), precision);
  interval += ", ";
  interval += FormatDouble(s.ci95_hi(), precision);
  interval += "]";
  return interval;
}

std::string RenderComparison(const ComparisonReport& report) {
  std::ostringstream out;
  AsciiTable table;
  table.SetHeader({"system", "ops/s (mean)", "stddev", "95% CI"});
  table.AddRow({report.name_a, FormatDouble(report.a.mean, 1),
                FormatDouble(report.a.stddev, 1), FormatCi95(report.a, 1)});
  table.AddRow({report.name_b, FormatDouble(report.b.mean, 1),
                FormatDouble(report.b.stddev, 1), FormatCi95(report.b, 1)});
  out << table.Render();
  out << "  Welch t = " << FormatDouble(report.welch.t, 2)
      << ", df = " << FormatDouble(report.welch.df, 1)
      << ", p = " << FormatDouble(report.welch.p_value, 4) << "\n";
  out << "  verdict: " << report.verdict << "\n";
  for (const std::string& caveat : report.caveats) {
    out << "  caveat: " << caveat << "\n";
  }
  return out.str();
}

std::string CsvTimelines(const std::vector<std::string>& names,
                         const std::vector<std::vector<double>>& series, Nanos interval) {
  std::ostringstream out;
  out << "t_seconds";
  for (const std::string& name : names) {
    out << ',' << name;
  }
  out << '\n';
  size_t longest = 0;
  for (const auto& s : series) {
    longest = std::max(longest, s.size());
  }
  for (size_t i = 0; i < longest; ++i) {
    out << FormatDouble(ToSeconds(interval) * static_cast<double>(i + 1), 0);
    for (const auto& s : series) {
      out << ',';
      if (i < s.size()) {
        out << FormatDouble(s[i], 2);
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string CsvHistogram(const LatencyHistogram& histogram) {
  std::ostringstream out;
  out << "bucket,lower_bound_ns,count,share_pct\n";
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    out << b << ',' << LatencyHistogram::BucketLowerBound(b) << ',' << histogram.count(b) << ','
        << FormatDouble(histogram.SharePct(b), 4) << '\n';
  }
  return out.str();
}

std::string CsvSweep(const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  out << "file_size_mib,ops_per_sec,stddev,rel_stddev_pct,ci95_half,hit_ratio\n";
  for (const SweepRow& row : rows) {
    out << row.file_size / kMiB << ',' << FormatDouble(row.throughput.mean, 2) << ','
        << FormatDouble(row.throughput.stddev, 2) << ','
        << FormatDouble(row.throughput.rel_stddev_pct, 2) << ','
        << FormatDouble(row.throughput.ci95_half_width, 2) << ','
        << FormatDouble(row.cache_hit_ratio, 4) << '\n';
  }
  return out.str();
}

}  // namespace fsbench
