// Extension experiment: the cluster DFS (tsx::dfs). The paper stores job
// input/output on single-node HDFS; this bench asks what redundancy scheme
// a tiered-memory cluster should buy — replication-3 or erasure coding —
// when storage failure domains start failing mid-run.
//
// Part 1 is a safety gate: with the default DfsConfig (replication-1, one
// datanode — the flat single-disk model) the cluster DFS must be invisible:
// the full Fig. 2 sweep executed by the parallel runner is compared
// bit-for-bit (runner::results_identical) against fresh serial run_workload
// calls.
//
// Part 2 runs every workload under the compound "dimm-datanode" drill — the
// NVM DIMM group goes offline while a datanode crashes — once on a
// replication-3 cluster and once on an RS(6,3) cluster, and gates on the
// robustness promise: every run completes byte-identical to its fault-free
// baseline. The table puts the two codecs' storage overhead next to their
// recovery-read amplification: what RS saves in capacity it pays back in
// repair traffic.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "dfs/options.hpp"
#include "fault/scenario.hpp"
#include "runner/serialize.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("EXTENSION", "erasure-coded failure-domain-aware DFS");

  // --- Part 1: the default config is bit-identical to the flat model -----
  // (serial side runs without the cache so both sides simulate for real).
  {
    const auto configs = fig2_spec().enumerate();
    const auto parallel =
        runner::run_sweep(fig2_spec(), bench_runner_options());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (!runner::results_identical(parallel[i], run_workload(configs[i])))
        ++mismatches;
    }
    std::printf(
        "flat-model equivalence gate: %zu configs, %zu mismatches%s\n\n",
        configs.size(), mismatches,
        mismatches == 0 ? " (the cluster DFS is invisible by default)" : "");
    if (mismatches != 0) return 1;
  }

  // --- Part 2: replication-3 vs RS(6,3) under the compound drill ---------
  dfs::DfsConfig rep3;
  rep3.codec = dfs::CodecKind::kReplication;
  rep3.replication = 3;
  rep3.racks = 3;
  rep3.nodes_per_rack = 2;  // 6 datanodes, replicas rack-diverse

  const dfs::DfsConfig rs63 = fault::storage_drill_dfs();  // 12 datanodes

  const dfs::DfsConfig kCodecs[] = {rep3, rs63};
  const char* kCodecNames[] = {"rep-3", "RS(6,3)"};

  auto drill_config = [&](App app, const dfs::DfsConfig& d) {
    RunConfig cfg;
    cfg.app = app;
    cfg.scale = ScaleId::kSmall;
    cfg.tier = mem::TierId::kTier2;
    cfg.executors = 2;
    cfg.cores_per_executor = 20;
    cfg.dfs = d;
    return cfg;
  };

  // Fault-free baselines per (app, codec): the correctness reference and
  // the timing calibration for injection placement.
  std::vector<RunConfig> base_configs;
  for (const App app : kAllApps)
    for (const dfs::DfsConfig& d : kCodecs)
      base_configs.push_back(drill_config(app, d));
  const auto baselines =
      runner::ParallelRunner(bench_runner_options()).run(base_configs);

  std::vector<RunConfig> drills;
  for (std::size_t a = 0; a < kAllApps.size(); ++a) {
    for (std::size_t c = 0; c < 2; ++c) {
      const double ramp = 2.5;  // virtual seconds before the first task
      const double exec = baselines[a * 2 + c].exec_time.sec();
      const double compute = exec > ramp ? exec - ramp : exec;
      RunConfig cfg = drill_config(kAllApps[a], kCodecs[c]);
      cfg.fault = fault::scenario("dimm-datanode");
      cfg.fault.datanode_crash_at_s = ramp + 0.25 * compute;
      cfg.fault.offline_at_s = ramp + 0.5 * compute;
      drills.push_back(cfg);
    }
  }
  const auto runs = runner::ParallelRunner(bench_runner_options()).run(drills);

  TablePrinter table({"app", "codec", "overhead", "time (s)", "vs clean",
                      "lost", "degr rd", "repaired", "rd MB", "wr MB",
                      "amp", "ok"});
  std::size_t broken = 0;
  for (std::size_t a = 0; a < kAllApps.size(); ++a) {
    for (std::size_t c = 0; c < 2; ++c) {
      const RunResult& base = baselines[a * 2 + c];
      const RunResult& r = runs[a * 2 + c];
      const dfs::DfsStats& d = r.dfs;
      const bool ok = !r.failed && r.valid && r.validation == base.validation;
      if (!ok) ++broken;
      const double amp = d.repair_write_bytes.b() > 0.0
                             ? d.repair_read_bytes.b() /
                                   d.repair_write_bytes.b()
                             : 0.0;
      table.add_row(
          {to_string(r.config.app), kCodecNames[c],
           TablePrinter::num(r.config.dfs.storage_overhead(), 2) + "x",
           TablePrinter::num(r.exec_time.sec(), 3),
           TablePrinter::num(r.exec_time.sec() / base.exec_time.sec(), 3) +
               "x",
           std::to_string(d.chunks_lost), std::to_string(d.degraded_reads),
           std::to_string(d.chunks_repaired),
           TablePrinter::num(d.repair_read_bytes.b() / 1048576.0, 2),
           TablePrinter::num(d.repair_write_bytes.b() / 1048576.0, 2),
           TablePrinter::num(amp, 2) + "x", ok ? "yes" : "NO"});
    }
  }
  table.print(std::cout);

  std::printf(
      "\nrecovery gate: %zu drills, %zu incorrect%s\n", runs.size(), broken,
      broken == 0 ? " (every degraded run matched its baseline answer)" : "");

  std::printf(
      "\nReading: the codecs trade capacity against recovery bandwidth.\n"
      "Replication-3 burns 3.0x raw storage but repairs a lost chunk by\n"
      "copying one surviving replica (amplification 1x). RS(6,3) stores\n"
      "the same data at 1.5x, yet rebuilding one chunk streams k = 6\n"
      "survivors through the repair pipeline — a ~6x read amplification\n"
      "that lands on the same shared storage channel the workload's own\n"
      "I/O uses. Degraded reads tell the same story: a replicated read\n"
      "falls through to another replica for free, while an RS degraded\n"
      "read reconstructs from k chunks. Determinism holds throughout —\n"
      "placement, loss and the repair schedule replay bit-for-bit from\n"
      "the run seed.\n");
  return broken == 0 ? 0 : 1;
}
