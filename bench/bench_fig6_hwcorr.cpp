// Fig. 6 reproduction: Pearson correlation of execution time with the
// tiers' hardware specs (idle latency, bandwidth) for every application
// and workload size, across Tiers 0-3. The paper reports near-perfect
// positive correlation with latency and negative with bandwidth.
#include <cstdio>

#include "analysis/correlation_study.hpp"
#include "analysis/predictor.hpp"
#include "bench_util.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("FIGURE 6", "hw-spec vs execution-time correlation per run");

  const auto all_runs = runner::run_sweep(fig2_spec(), bench_runner_options());
  const auto groups = runner::group_by_workload(all_runs);

  TablePrinter table({"app", "scale", "corr(latency)", "corr(bandwidth)",
                      "LOO err T1", "LOO err T2"});
  stats::Welford lat_corr, bw_corr;
  for (const App app : kAllApps) {
    for (const ScaleId scale : kAllScales) {
      std::vector<RunResult> runs;
      for (const RunResult* r : groups.at({app, scale}))
        runs.push_back(*r);
      const analysis::HwCorrelation c = analysis::hw_spec_correlation(runs);
      lat_corr.add(c.with_latency);
      bw_corr.add(c.with_bandwidth);
      const double loo1 =
          analysis::leave_one_tier_out_error(runs, mem::TierId::kTier1);
      const double loo2 =
          analysis::leave_one_tier_out_error(runs, mem::TierId::kTier2);
      table.add_row({to_string(app), to_string(scale),
                     TablePrinter::num(c.with_latency, 2),
                     TablePrinter::num(c.with_bandwidth, 2),
                     TablePrinter::num(loo1, 3), TablePrinter::num(loo2, 3)});
    }
  }
  table.print(std::cout);

  std::printf(
      "\nAverage correlation with latency:   %+.2f  (paper: ~ +1)\n"
      "Average correlation with bandwidth: %+.2f  (paper: ~ -1)\n"
      "LOO = leave-one-tier-out relative error of the linear predictor\n"
      "(Takeaway 8: linear models suffice for tier performance estimates).\n",
      lat_corr.mean(), bw_corr.mean());
  return 0;
}
