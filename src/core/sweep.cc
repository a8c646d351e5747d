#include "src/core/sweep.h"

#include <sstream>

#include "src/core/cell_seed.h"
#include "src/core/parallel_runner.h"
#include "src/util/ascii.h"

namespace fsbench {

SweepMatrix::SweepMatrix(std::string row_label, std::vector<double> row_params,
                         std::string col_label, std::vector<double> col_params)
    : row_label_(std::move(row_label)),
      row_params_(std::move(row_params)),
      col_label_(std::move(col_label)),
      col_params_(std::move(col_params)) {}

SweepMatrixResult SweepMatrix::Run(const ExperimentConfig& config,
                                   const MachineFactory& machine_factory,
                                   const CellWorkloadFactory& workload_factory) const {
  SweepMatrixResult result;
  result.row_label = row_label_;
  result.col_label = col_label_;
  result.row_params = row_params_;
  result.col_params = col_params_;
  const size_t cols = col_params_.size();
  result.cells.resize(row_params_.size() * cols);
  // Cells run on the host-parallel pool; each writes only its own slot, so
  // the matrix is byte-identical for every jobs value. An exception inside
  // one cell (workload factory, machine assembly) fails that cell alone —
  // its slot keeps ok == false and the neighbours are untouched. That flag
  // is the sweep's failure report, so the error list is dropped on purpose.
  static_cast<void>(RunCells(result.cells.size(), config.jobs, [&](size_t index) {
    const size_t r = index / cols;
    const size_t c = index % cols;
    ExperimentConfig cell_config = config;
    // Independent jitter draws per cell, stable under matrix reshaping.
    cell_config.base_seed = DeriveCellSeed(config.base_seed, r, c, 0);
    // The cell's repetitions stay on this worker (RunCells nests inline),
    // so the host thread count is bounded by the outer jobs value.
    const double row_param = row_params_[r];
    const double col_param = col_params_[c];
    SweepCell& cell = result.cells[index];
    cell.row_param = row_param;
    cell.col_param = col_param;
    const ExperimentResult experiment =
        Experiment(cell_config)
            .Run(machine_factory, [&workload_factory, row_param, col_param] {
              return workload_factory(row_param, col_param);
            });
    cell.ok = experiment.AllOk();
    if (cell.ok) {
      cell.throughput = experiment.throughput;
      cell.cache_hit_ratio = experiment.representative().cache_hit_ratio;
    }
  }));
  return result;
}

std::string RenderSweepMatrix(const SweepMatrixResult& result, double fragile_pct) {
  AsciiTable table;
  std::vector<std::string> header{result.row_label + " \\ " + result.col_label};
  for (double col : result.col_params) {
    header.push_back(FormatDouble(col, 0));
  }
  table.SetHeader(std::move(header));
  for (size_t r = 0; r < result.row_params.size(); ++r) {
    std::vector<std::string> row{FormatDouble(result.row_params[r], 0)};
    for (size_t c = 0; c < result.col_params.size(); ++c) {
      const SweepCell& cell = result.at(r, c);
      if (!cell.ok) {
        row.push_back("FAIL");
      } else {
        std::string text = FormatDouble(cell.throughput.mean, 0);
        if (cell.throughput.rel_stddev_pct > fragile_pct) {
          text += "!";
        }
        row.push_back(std::move(text));
      }
    }
    table.AddRow(std::move(row));
  }
  std::ostringstream out;
  out << table.Render();
  out << "  ('!' marks fragile cells: relative stddev > " << FormatDouble(fragile_pct, 0)
      << "% across runs)\n";
  return out.str();
}

std::string CsvSweepMatrix(const SweepMatrixResult& result) {
  std::ostringstream out;
  out << result.row_label << ',' << result.col_label
      << ",ops_per_sec,stddev,rel_stddev_pct,hit_ratio\n";
  for (const SweepCell& cell : result.cells) {
    out << FormatDouble(cell.row_param, 2) << ',' << FormatDouble(cell.col_param, 2) << ','
        << FormatDouble(cell.throughput.mean, 2) << ','
        << FormatDouble(cell.throughput.stddev, 2) << ','
        << FormatDouble(cell.throughput.rel_stddev_pct, 2) << ','
        << FormatDouble(cell.cache_hit_ratio, 4) << '\n';
  }
  return out.str();
}

}  // namespace fsbench
