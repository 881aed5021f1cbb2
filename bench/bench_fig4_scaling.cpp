// Fig. 4 reproduction: speedup/slowdown of sort, rf, lda and pagerank for
// varying executors x cores-per-executor on the NVM tier, at small and
// large scales. Baseline = 1 executor x 40 cores (bottom-right of each
// paper heat map).
//
// Expected shapes: fewer cores slow everything down; more executors *hurt*
// small inputs (startup + co-operation overhead, Takeaway 6) but *help*
// large ones at low core counts (utilization, Takeaway 7); lda is largely
// insensitive; worst slowdowns approach the paper's 3.11x.
#include <cstdio>

#include "analysis/speedup_grid.hpp"
#include "bench_util.hpp"
#include "mem/calibration.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("FIGURE 4", "executor/core grid speedups vs 1x40 baseline");

  const std::vector<int> executor_axis = {1, 2, 4, 8};
  const std::vector<int> core_axis = {5, 10, 20, 40};

  double worst = 1.0;
  for (const App app : {App::kSort, App::kRf, App::kLda, App::kPagerank}) {
    for (const ScaleId scale : {ScaleId::kSmall, ScaleId::kLarge}) {
      RunConfig base;
      base.app = app;
      base.scale = scale;
      base.tier = mem::TierId::kTier2;
      const analysis::SpeedupGrid grid = analysis::run_speedup_grid(
          base, executor_axis, core_axis, bench_runner_options());
      worst = std::max(worst, grid.worst_slowdown());
      std::printf("--- %s-%s on %s (baseline %.2f s, worst slowdown %.2fx)\n",
                  to_string(app).c_str(), to_string(scale).c_str(),
                  mem::to_string(base.tier).c_str(),
                  grid.baseline_time.sec(), grid.worst_slowdown());
      std::printf("%s\n", grid.render().c_str());
    }
  }

  std::printf("Worst observed slowdown across all grids: %.2fx (paper: %.2fx)\n",
              worst, mem::paper::kWorstGridSlowdown);
  return 0;
}
