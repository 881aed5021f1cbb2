// Fig. 2 (bottom) reproduction: average energy per DRAM DIMM (Tier 0 run)
// vs per Optane DCPM DIMM (Tier 2 run), per app x scale — the Sec. IV-D
// comparison behind Takeaway 5 and the 63.9% headline.
#include <cstdio>

#include "bench_util.hpp"
#include "mem/calibration.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("FIGURE 2 (bottom)", "DRAM vs NVM energy per DIMM");

  // Tier axis is innermost, so each workload's (T0, T2) pair is adjacent.
  const auto runs = runner::run_sweep(
      runner::SweepSpec().all_apps().all_scales().tiers(
          {mem::TierId::kTier0, mem::TierId::kTier2}),
      bench_runner_options());

  TablePrinter table({"app", "scale", "DRAM J/DIMM (T0)", "NVM J/DIMM (T2)",
                      "NVM/DRAM", "DRAM saving %"});
  stats::Welford saving;
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    const RunResult& dram = runs[i];
    const RunResult& nvm = runs[i + 1];
    const double d = dram.bound_node_energy_per_dimm().j();
    const double n = nvm.bound_node_energy_per_dimm().j();
    const double pct = 100.0 * (n - d) / n;
    saving.add(pct);
    table.add_row({to_string(dram.config.app), to_string(dram.config.scale),
                   TablePrinter::num(d, 1), TablePrinter::num(n, 1),
                   TablePrinter::num(n / d, 2), TablePrinter::num(pct, 1)});
  }
  table.print(std::cout);

  std::printf(
      "\nAverage DRAM energy saving: %.1f%%   (paper: %.1f%%)\n"
      "Shape: NVM DIMMs always cost more energy in total despite lower\n"
      "per-access energy, because the runs take longer (Sec. IV-D).\n",
      saving.mean(), mem::paper::kDramEnergySavingPct);
  return 0;
}
