// Extension experiment: fault injection and recovery (tsx::fault). The
// paper measures healthy runs; this bench asks what the tiered memory
// system costs — and still guarantees — when things break mid-run.
//
// Part 1 is a safety gate: with faults disabled (the default in every
// RunConfig) the fault plane must be invisible — the full Fig. 2 sweep
// executed by the parallel runner is compared bit-for-bit
// (runner::results_identical) against fresh serial run_workload calls.
//
// Part 2 runs every workload on the NVM tier under the three acceptance
// drills — an executor crash mid-stage, the NVM DIMM group going offline,
// and stragglers triggering speculation — and gates on Spark's promise:
// every run completes with results byte-identical to the fault-free
// baseline, with the recovery bill (retries, lineage recomputations,
// backoff waits, rerouted traffic) itemized next to the slowdown.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "fault/scenario.hpp"
#include "runner/serialize.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("EXTENSION", "deterministic fault injection with recovery");

  // --- Part 1: disabled faults are bit-identical to the baseline --------
  // (serial side runs without the cache so both sides simulate for real).
  {
    const auto configs = fig2_spec().enumerate();
    const auto parallel = runner::run_sweep(fig2_spec(), bench_runner_options());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (!runner::results_identical(parallel[i], run_workload(configs[i])))
        ++mismatches;
    }
    std::printf("fault-free equivalence gate: %zu configs, %zu mismatches%s\n\n",
                configs.size(), mismatches,
                mismatches == 0 ? " (the fault plane is invisible when off)"
                                : "");
    if (mismatches != 0) return 1;
  }

  // --- Part 2: the acceptance drills ------------------------------------
  // Every app, small scale, heap bound to the NVM tier, two executors so a
  // crash has a surviving peer to recover on.
  auto drill_config = [](App app) {
    RunConfig cfg;
    cfg.app = app;
    cfg.scale = ScaleId::kSmall;
    cfg.tier = mem::TierId::kTier2;
    cfg.executors = 2;
    cfg.cores_per_executor = 20;
    return cfg;
  };

  // Fault-free baselines — both the correctness reference and the timing
  // calibration for crash placement (launch + registration overheads mean
  // the first ~2.5 virtual seconds run no tasks).
  std::vector<RunConfig> base_configs;
  for (const App app : kAllApps) base_configs.push_back(drill_config(app));
  const auto baselines =
      runner::ParallelRunner(bench_runner_options()).run(base_configs);

  const char* kScenarios[] = {"crash", "dimm-offline", "straggler"};
  std::vector<RunConfig> drills;
  for (std::size_t a = 0; a < kAllApps.size(); ++a) {
    const double ramp = 2.5;  // virtual seconds before the first task
    const double exec = baselines[a].exec_time.sec();
    const double compute = exec > ramp ? exec - ramp : exec;
    for (const char* name : kScenarios) {
      RunConfig cfg = drill_config(kAllApps[a]);
      cfg.fault = fault::scenario(name);
      if (cfg.fault.executor_crashes > 0) {
        // Aim the crash window at the middle of the compute phase.
        cfg.fault.crash_offset_s = ramp + 0.25 * compute;
        cfg.fault.crash_window_s = 0.5 * compute;
        cfg.fault.restart_delay_s = 0.5;
      }
      drills.push_back(cfg);
    }
  }
  const auto runs =
      runner::ParallelRunner(bench_runner_options()).run(drills);

  TablePrinter table({"app", "scenario", "time (s)", "vs clean", "inject",
                      "fail", "retry", "recomp", "lost$", "backoff (s)",
                      "spec", "reroute MB", "ok"});
  std::size_t broken = 0;
  for (std::size_t a = 0; a < kAllApps.size(); ++a) {
    const RunResult& base = baselines[a];
    for (std::size_t s = 0; s < 3; ++s) {
      const RunResult& r = runs[a * 3 + s];
      const fault::FaultStats& f = r.fault;
      const bool ok =
          !r.failed && r.valid && r.validation == base.validation;
      if (!ok) ++broken;
      const std::uint64_t injected = f.crashes + f.tier_offline_events +
                                     f.uce_events + f.bw_collapses +
                                     f.stragglers;
      table.add_row(
          {to_string(r.config.app), kScenarios[s],
           TablePrinter::num(r.exec_time.sec(), 3),
           TablePrinter::num(r.exec_time.sec() / base.exec_time.sec(), 3) +
               "x",
           std::to_string(injected), std::to_string(f.task_failures),
           std::to_string(f.retries), std::to_string(f.recomputed_map_tasks),
           std::to_string(f.lost_cache_blocks + f.lost_shuffle_outputs),
           TablePrinter::num(f.backoff_wait_seconds, 3),
           strfmt("%llu/%llu",
                  static_cast<unsigned long long>(f.speculative_launches),
                  static_cast<unsigned long long>(f.speculative_wins)),
           TablePrinter::num(f.rerouted_bytes.b() / 1048576.0, 2),
           ok ? "yes" : "NO"});
    }
  }
  table.print(std::cout);

  std::printf(
      "\nrecovery gate: %zu drills, %zu incorrect%s\n", runs.size(), broken,
      broken == 0 ? " (every faulted run recovered to the baseline answer)"
                  : "");

  std::printf(
      "\nReading: recovery is lineage, and lineage is compute + memory\n"
      "traffic. A mid-stage crash costs its victims' retries plus the\n"
      "recomputation of every lost shuffle map output and cached block —\n"
      "all re-billed through the bound tier, so the slowdown is largest\n"
      "where the paper's tiers are slowest. The DIMM-offline drill keeps\n"
      "runs correct by degrading placement to the surviving tiers (the\n"
      "rerouted MB column); stragglers cost little because speculation\n"
      "re-launches them healthy. Determinism holds throughout: the same\n"
      "seed replays the same faults, so every number above is exactly\n"
      "reproducible.\n");
  return broken == 0 ? 0 : 1;
}
