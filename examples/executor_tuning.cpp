// executor_tuning: the fat-vs-skinny executor exploration of Fig. 4 for one
// workload, ending with a concrete deployment recommendation — the
// "guidelines" use case the paper targets.
//
// Usage:
//   executor_tuning [app] [--scale=small|large] [--tier=0..3]
//   executor_tuning pagerank --scale=large --tier=2
#include <cstdio>
#include <iostream>

#include "analysis/speedup_grid.hpp"
#include "core/config.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace tsx;
  using namespace tsx::workloads;

  Config cli;
  const auto positional = cli.parse_args(argc, argv);
  RunConfig base;
  base.app = positional.empty() ? App::kPagerank
                                : app_from_name(positional[0]);
  base.scale = scale_from_label(cli.get_or("scale", "large"));
  base.tier = mem::tier_from_index(cli.get_int_in_or("tier", 2, 0, 3));

  std::printf("executor_tuning: %s-%s on %s (baseline 1 executor x 40 cores)\n\n",
              to_string(base.app).c_str(), to_string(base.scale).c_str(),
              mem::to_string(base.tier).c_str());

  const analysis::SpeedupGrid grid =
      analysis::run_speedup_grid(base, {1, 2, 4, 8}, {5, 10, 20, 40});
  std::cout << grid.render() << "\n";

  // Recommendation: the fastest cell.
  double best = 0.0;
  int best_e = 1, best_c = 40;
  for (std::size_t e = 0; e < grid.executor_axis.size(); ++e) {
    for (std::size_t c = 0; c < grid.core_axis.size(); ++c) {
      if (grid.speedup[e][c] > best) {
        best = grid.speedup[e][c];
        best_e = grid.executor_axis[e];
        best_c = grid.core_axis[c];
      }
    }
  }
  std::printf(
      "Recommendation: %d executor(s) x %d core(s) — %.2fx vs the default\n"
      "deployment (worst configuration in this grid: %.2fx slowdown).\n",
      best_e, best_c, best, grid.worst_slowdown());
  return 0;
}
