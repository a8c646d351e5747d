// Device-fault sweep: the reliability benchmark axis Section 2 asks for and
// Table 1's steady-state benchmarks never exercise. Real devices fail
// partially — latent sector errors, transient firmware hiccups, slow-I/O
// tails — and how a file system behaves as the fault rate climbs (soldier
// on? remount read-only? collapse?) is a result no healthy-device run can
// produce.
//
// The sweep crosses fault rate x {ext2, ext3, xfs} x block-layer policy
// {none, retry, retry+remap} over an fsync-heavy postmark churn and
// reports, per cell:
//   - throughput (ops/s over the full configured window — a file system
//     that dies read-only halfway keeps its dead air in the denominator),
//   - p99 operation latency (retries and backoff live in the tail),
//   - failed/absorbed ops, retries, remaps, and whether the file system
//     ended the run remounted read-only with an aborted journal.
// Everything is virtual-time deterministic per seed; results go to
// BENCH_faults.json for PR-over-PR tracking.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/workloads/postmark_like.h"
#include "src/util/ascii.h"

namespace fsbench {
namespace {

struct PolicyCell {
  const char* name;
  RetryPolicy policy;
  // Drive-internal error recovery budget paired with the policy. A host
  // with no retry logic depends on the drive's deep-recovery heroics (long
  // desktop-class budget); a retrying block layer caps the drive's recovery
  // (ERC/TLER) because it owns recovery itself and wants fast error
  // reports. The pairing is what the firmware knob exists for.
  Nanos drive_recovery;
};

struct CellResult {
  std::string fs;
  std::string policy;
  double rate = 0.0;
  double ops_per_second = 0.0;
  Nanos p99 = 0;
  RunResult run;
};

MachineFactory FaultyMachine(FsKind kind, double rate, const PolicyCell& cell) {
  const RetryPolicy policy = cell.policy;
  const Nanos drive_recovery = cell.drive_recovery;
  return [kind, rate, policy, drive_recovery](uint64_t seed) {
    MachineConfig config = PaperTestbedConfig();
    // Just above the OS reservation: a few MiB of page cache, so the churn
    // load's reads actually reach the (faulty) device — fully-cached reads
    // would hide every read-path fault.
    config.ram = 110 * kMiB;
    // Drive-internal error recovery before an unrecoverable error surfaces:
    // grinding re-reads and ECC heroics make a reported EIO far more
    // expensive than a clean access. Budget per policy, see PolicyCell.
    config.disk.error_recovery_time = drive_recovery;
    config.seed = seed;
    config.retry = policy;
    // One knob sweeps all three fault classes, weighted by how devices
    // actually fail: transient faults dominate (drive-internal retries and
    // ECC near-misses are far more common than media loss), latent-bad
    // regions arrive at the base rate (each one poisons every access it
    // receives, so a small region fraction is already a storm), slow-I/O
    // tails at the base rate.
    config.faults.transient_rate = std::min(0.5, 5.0 * rate);
    config.faults.persistent_rate = rate;
    config.faults.slow_rate = rate;
    config.faults.slow_multiplier = 8.0;
    // Fine-grained remapping: a small region keeps the post-remap tax low
    // (fewer files straddle the redirected hole), and many small slices keep
    // each spare close to the region it replaces, so a remapped access costs
    // a short hop instead of a cross-disk stroke.
    config.faults.region_sectors = 256;  // 128 KiB regions
    config.faults.spare_regions = 512;
    return std::make_unique<Machine>(kind, config);
  };
}

int Run(const BenchArgs& args) {
  PrintHeader("Device-fault sweep: throughput and degraded mode vs fault rate",
              "section 2 'reliability in the face of failures' (unmeasured in Table 1)");

  const Nanos duration = BenchDuration(args, 30 * kSecond, 120 * kSecond, 5 * kSecond);
  const std::vector<double> rates = args.smoke
                                        ? std::vector<double>{0.0, 0.02}
                                        : std::vector<double>{0.0, 0.005, 0.01, 0.02};

  // Larger files than the recovery bench on purpose: a whole-file read
  // spans several demand batches, so a fault mid-read throws away the
  // batches already paid for — the wasted work a retry policy earns back.
  PostmarkConfig pm;
  pm.initial_files = args.smoke ? 40 : 150;
  pm.min_size = 64 * kKiB;
  pm.max_size = 512 * kKiB;
  // Read-heavy mail-server mix: most device traffic is synchronous demand
  // reads, the path where a fault's cost lands on the operation that paid
  // for it. Appends + fsync keep journal commits (the log-fault target)
  // flowing.
  pm.read_bias = 0.9;
  pm.data_fraction = 0.8;
  pm.fsync_every = 8;

  const FsKind fs_kinds[] = {FsKind::kExt2, FsKind::kExt3, FsKind::kXfs};
  const char* fs_names[] = {"ext2", "ext3", "xfs"};
  // Short initial backoff: the retry cost should be the physical re-attempt
  // (the head moved, the platter turned), not a policy sleep. The no-retry
  // host leaves the drive's desktop-class deep recovery (~150 ms per
  // surfaced error) in place — it is the only recovery there is; retrying
  // hosts cap it ERC/TLER-style at 10 ms and own recovery themselves.
  const PolicyCell policies[] = {
      {"none", RetryPolicy{1, FromMillis(0.1), 2.0, false}, FromMillis(150)},
      {"retry", RetryPolicy{6, FromMillis(0.1), 2.0, false}, FromMillis(10)},
      {"retry+remap", RetryPolicy{6, FromMillis(0.1), 2.0, true}, FromMillis(10)},
  };

  // The fs x policy x rate grid runs host-parallel, slots in the same
  // (f, policy, rate) nesting order as before, so table and JSON are
  // byte-identical for every --jobs value.
  const size_t num_rates = rates.size();
  const size_t num_policies = 3;
  std::vector<CellResult> results(3 * num_policies * num_rates);
  const std::vector<std::string> errors = RunCells(results.size(), args.jobs, [&](size_t index) {
    const size_t f = index / (num_policies * num_rates);
    const PolicyCell& pol = policies[(index / num_rates) % num_policies];
    const double rate = rates[index % num_rates];
    ExperimentConfig config;
    config.runs = args.smoke ? 1 : 4;
    config.duration = duration;
    config.threads = 4;
    config.base_seed = args.seed;
    config.continue_on_error = true;
    config.jobs = args.jobs;
    const ExperimentResult result =
        Experiment(config).Run(FaultyMachine(fs_kinds[f], rate, pol), MtPostmarkFactory(pm));
    if (!result.AllOk()) {
      throw std::runtime_error(std::string("error=") + FsStatusName(result.runs[0].error));
    }
    CellResult& cell = results[index];
    cell.fs = fs_names[f];
    cell.policy = pol.name;
    cell.rate = rate;
    // Throughput/p99 are means across the runs (per-seed trajectories
    // through a fault field are noisy); counters and degraded-mode flags
    // come from the representative first run.
    cell.run = result.runs[0];
    cell.ops_per_second = result.throughput.mean;
    cell.p99 = result.merged_histogram.ApproxPercentile(0.99);
  });
  if (ReportFailedCells(errors, [&](size_t index) {
        return std::string(fs_names[index / (num_policies * num_rates)]) + " " +
               policies[(index / num_rates) % num_policies].name +
               " rate=" + std::to_string(rates[index % num_rates]);
      })) {
    return 1;
  }

  AsciiTable table;
  table.SetHeader({"fs", "policy", "rate", "ops/s", "p99 ms", "failed", "retries", "remaps",
                   "ro", "jrnl abort"});
  for (const CellResult& cell : results) {
    const FaultSummary& fault = cell.run.fault;
    table.AddRow({cell.fs, cell.policy, FormatDouble(cell.rate, 3),
                  FormatDouble(cell.ops_per_second, 1),
                  FormatDouble(static_cast<double>(cell.p99) / kMillisecond, 2),
                  std::to_string(cell.run.failed_ops), std::to_string(fault.retries),
                  std::to_string(fault.remapped_regions), fault.remounted_ro ? "yes" : "-",
                  fault.journal_aborted ? "yes" : "-"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "reading: at rate 0 the three policies are byte-identical (the plan is\n"
      "off; retry policy never engages). As the rate climbs, no-retry ext3/xfs\n"
      "hit a journal-log write fault almost immediately and spend the rest of\n"
      "the window remounted read-only — near-zero throughput — while ext2\n"
      "(errors=continue) absorbs EIOs op by op, each one costing the drive's\n"
      "full deep-recovery grind before it surfaces. Retrying hosts cap drive\n"
      "recovery (ERC/TLER) and absorb the transient class themselves, pushing\n"
      "the collapse out to the first *persistent* log fault; remapping absorbs\n"
      "those too, so retry+remap >= retry >= none, at the price of\n"
      "retry/backoff time in the p99 tail. That ordering — and the read-only\n"
      "cliff — is the reliability result steady-state benchmarks cannot show.\n");

  BenchJson json("fault_sweep");
  json.header().Int("seed", args.seed);
  for (const CellResult& cell : results) {
    const FaultSummary& f = cell.run.fault;
    json.AddRow().Str("fs", cell.fs).Str("policy", cell.policy).Num("rate", cell.rate)
        .Fixed("ops_per_second", cell.ops_per_second, 2)
        .Fixed("p99_ms", static_cast<double>(cell.p99) / kMillisecond, 3)
        .Int("ops", cell.run.ops).Int("failed_ops", cell.run.failed_ops)
        .Int("device_errors", f.device_errors).Int("transient_faults", f.transient_faults)
        .Int("persistent_faults", f.persistent_faults).Int("slow_ios", f.slow_ios)
        .Int("retries", f.retries)
        .Fixed("backoff_ms", static_cast<double>(f.retry_backoff_time) / kMillisecond, 3)
        .Int("remapped_regions", f.remapped_regions).Int("spare_regions_left", f.spare_regions_left)
        .Int("meta_io_failures", f.meta_io_failures).Int("degraded_reads", f.degraded_reads)
        .Int("readonly_rejects", f.readonly_rejects).Bool("remounted_ro", f.remounted_ro)
        .Bool("journal_aborted", f.journal_aborted);
  }
  return json.Write("BENCH_faults.json") ? 0 : 1;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
