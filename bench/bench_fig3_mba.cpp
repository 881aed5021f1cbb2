// Fig. 3 reproduction: execution time under Intel MBA bandwidth throttling.
//
// For each application, runs all three input scales at every MBA level
// (10..100%) on the NVM tier and prints the violin summary (min/q1/median/
// q3/max over the scales) per level — the quantity the paper's violins
// encode. The expected shape is *flatness*: neither the average nor the
// spread moves with the allocation percentage, because the workloads are
// latency-bound and never saturate bandwidth (Takeaway 4).
#include <cstdio>

#include "bench_util.hpp"
#include "stats/quantiles.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("FIGURE 3", "execution time vs MBA bandwidth allocation");

  const std::vector<int> levels = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};

  for (const App app : kAllApps) {
    TablePrinter table({"mba %", "min/q1/med/q3/max (s, over scales)",
                        "mean (s)", "vs 100%"});
    // Scale is the outer enumeration axis and MBA the inner, so run index
    // (s, l) lands at s * levels.size() + l; regroup per level over scales.
    const auto runs = runner::run_sweep(
        runner::SweepSpec()
            .apps({app})
            .all_scales()
            .tiers({mem::TierId::kTier2})
            .mba_levels(levels),
        bench_runner_options());
    std::vector<std::vector<double>> level_times(levels.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
      level_times[i % levels.size()].push_back(runs[i].exec_time.sec());
    const double mean_at_full = stats::violin(level_times.back()).mean;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const stats::ViolinSummary v = stats::violin(level_times[i]);
      table.add_row({std::to_string(levels[i]), stats::to_string(v, 2),
                     TablePrinter::num(v.mean, 2),
                     TablePrinter::num(v.mean / mean_at_full, 3)});
    }
    std::printf("--- %s (Tier 2, scales aggregated like the paper)\n",
                to_string(app).c_str());
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf(
      "Shape check: the 'vs 100%%' column stays within a few percent of 1.0\n"
      "at every allocation level — bandwidth is not the bottleneck.\n");
  return 0;
}
