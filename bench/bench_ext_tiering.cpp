// Extension experiment: dynamic page migration between the paper's memory
// tiers (tsx::tiering). The paper's placements are static numactl binds;
// this bench asks what a kernel-style migration daemon would buy on top.
//
// Part 1 is a safety gate: with the `static` policy (the default in every
// RunConfig) the tiering subsystem must be invisible — the full Fig. 2
// sweep executed by the parallel runner is compared bit-for-bit
// (runner::results_identical) against fresh serial run_workload calls.
//
// Part 2 binds executors to the capacity tiers (the Fig. 2 worst cases)
// with a generous DRAM carve-out and lets each migration policy move hot
// cache/shuffle regions into it, itemizing what every policy paid for its
// speedup: copy time, NVM media bytes (write asymmetry) and write energy.
//
// Part 3 shrinks the carve-out below pagerank's hot set and runs both
// dynamic policies side by side at each size.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "runner/serialize.hpp"
#include "tiering/options.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  using tiering::PolicyKind;
  print_header("EXTENSION", "dynamic page migration across memory tiers");

  // --- Part 1: the static policy is bit-identical to the baseline -------
  // (run serially without the cache so both sides simulate for real).
  {
    const auto configs = fig2_spec().enumerate();
    const auto parallel = runner::run_sweep(fig2_spec(), bench_runner_options());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (!runner::results_identical(parallel[i], run_workload(configs[i])))
        ++mismatches;
    }
    std::printf("static-equivalence gate: %zu configs, %zu mismatches%s\n\n",
                configs.size(), mismatches,
                mismatches == 0 ? " (tiering is invisible when off)" : "");
    if (mismatches != 0) return 1;
  }

  // --- Part 2: migration policies on capacity-tier deployments ----------
  tiering::TieringConfig knobs;
  knobs.epoch_ms = 10.0;  // migrate aggressively; the default carve-out
                          // holds every hot region at these scales

  const auto runs = runner::run_sweep(
      runner::SweepSpec()
          .apps({App::kPagerank, App::kBayes, App::kLda, App::kSort})
          .scales({ScaleId::kLarge})
          .tiers({mem::TierId::kTier2, mem::TierId::kTier3})
          .tiering(knobs)
          .all_tiering_policies(),
      bench_runner_options());

  TablePrinter table({"app", "tier", "policy", "time (s)", "vs static",
                      "promo", "demo", "migr (s)", "nvm MB",
                      "wr energy (J)"});
  // Sweep order: tier varies above the policy axis, so each (app, tier)
  // cell is a contiguous block of |policies| runs headed by `static`.
  const std::size_t num_policies = tiering::kAllPolicies.size();
  for (std::size_t base = 0; base + num_policies <= runs.size();
       base += num_policies) {
    const RunResult& baseline = runs[base];
    for (std::size_t p = 0; p < num_policies; ++p) {
      const RunResult& r = runs[base + p];
      table.add_row(
          {to_string(r.config.app), mem::to_string(r.config.tier),
           tiering::to_string(r.config.tiering.policy),
           TablePrinter::num(r.exec_time.sec(), 3),
           TablePrinter::num(baseline.exec_time.sec() / r.exec_time.sec(), 3) +
               "x",
           std::to_string(r.tiering.promotions),
           std::to_string(r.tiering.demotions),
           TablePrinter::num(r.tiering.migration_seconds, 4),
           TablePrinter::num(r.tiering.nvm_bytes_written.b() / 1048576.0, 3),
           TablePrinter::num(r.tiering.nvm_write_energy.j(), 6)});
    }
  }
  table.print(std::cout);

  // Headline claim: on the skewed-access, cache-heavy workloads
  // (pagerank, bayes — most of their stream bytes come from heavily
  // reused cached blocks), lfu-promote beats the *best* static
  // capacity-tier bind.
  std::printf("\nskewed-access workloads, lfu-promote vs best static "
              "capacity tier:\n");
  const auto groups = runner::group_by_workload(runs);
  bool all_beat = true;
  for (const auto& [key, group] : groups) {
    if (key.first != App::kPagerank && key.first != App::kBayes) continue;
    double best_static = 0.0, best_lfu = 0.0;
    for (const RunResult* r : group) {
      const PolicyKind policy = r->config.tiering.policy;
      auto keep_min = [&](double& slot) {
        if (slot == 0.0 || r->exec_time.sec() < slot)
          slot = r->exec_time.sec();
      };
      if (policy == PolicyKind::kStatic) keep_min(best_static);
      if (policy == PolicyKind::kLfuPromote) keep_min(best_lfu);
    }
    const bool beats = best_lfu < best_static;
    all_beat = all_beat && beats;
    std::printf("  %-12s best static %.4fs, lfu-promote %.4fs (%.4fx) %s\n",
                to_string(key.first).c_str(), best_static, best_lfu,
                best_static / best_lfu, beats ? "" : "<-- NOT faster");
  }

  // --- Part 3: what an undersized carve-out costs ------------------------
  // Shrinking the DRAM slice below the hot set turns LFU into a thrash
  // generator: promotions force demotions, every demotion is an NVM media
  // write (write asymmetry + energy), and exec time regresses past the
  // static bind. The watermark policy keeps 30% of the slice free, so it
  // trades promotions for fewer forced demotions.
  {
    std::vector<RunConfig> configs;
    for (const double cap : {8.0, 3e-4, 1e-3}) {
      for (const PolicyKind policy :
           {PolicyKind::kLfuPromote, PolicyKind::kWatermark}) {
        RunConfig cfg;
        cfg.app = App::kPagerank;
        cfg.scale = ScaleId::kLarge;
        cfg.tier = mem::TierId::kTier2;
        cfg.tiering = knobs;
        cfg.tiering.policy = policy;
        cfg.tiering.fast_capacity_gib = cap;
        configs.push_back(cfg);
      }
    }
    const auto carve = runner::ParallelRunner(bench_runner_options())
                           .run(configs);
    std::printf("\npagerank/large on Tier 2, dynamic policy vs carve-out "
                "size:\n");
    TablePrinter sensitivity({"carve-out", "policy", "time (s)", "promo",
                              "demo", "migr (s)", "nvm MB", "wr energy (J)"});
    for (const RunResult& r : carve) {
      sensitivity.add_row(
          {strfmt("%.1f MiB", r.config.tiering.fast_capacity_gib * 1024.0),
           tiering::to_string(r.config.tiering.policy),
           TablePrinter::num(r.exec_time.sec(), 4),
           std::to_string(r.tiering.promotions),
           std::to_string(r.tiering.demotions),
           TablePrinter::num(r.tiering.migration_seconds, 4),
           TablePrinter::num(r.tiering.nvm_bytes_written.b() / 1048576.0, 3),
           TablePrinter::num(r.tiering.nvm_write_energy.j(), 6)});
    }
    sensitivity.print(std::cout);
  }

  std::printf(
      "\nReading: the migration daemon recovers part of the DRAM/NVM gap\n"
      "wherever *region-backed* stream traffic dominates — the cache-heavy\n"
      "iterative workloads (pagerank, bayes) and the bulk shuffler (sort)\n"
      "convert stream accesses into local-DRAM traffic at a one-time copy\n"
      "cost, with the largest relative gains on the slowest tier. lda\n"
      "stays flat: its time is latency-bound dependent heap accesses,\n"
      "which are pinned working-set pages no page migrator can help —\n"
      "the paper's takeaway about disaggregated tiers, rediscovered by a\n"
      "daemon that has nothing to move. The two dynamic policies\n"
      "coincide here because the generous carve-out never fills; the\n"
      "carve-out table shows what changes when capacity binds: an\n"
      "undersized DRAM slice turns LFU into a thrash generator whose\n"
      "demotion copies land on NVM media — copy time, media bytes and\n"
      "write energy all itemized — with exec time regressing past the\n"
      "static bind, while watermark, which keeps 30%% of the slice free,\n"
      "makes a move or two and stays at the static bind's time.\n");
  return all_beat ? 0 : 1;
}
