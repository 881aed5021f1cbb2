// Fig. 2 (top) reproduction: execution time of all 7 workloads at
// tiny/small/large on every memory tier, with the paper's default
// deployment (1 executor x 40 cores).
//
// Expected shape (per the paper): Tier 0 <= Tier 1 <= Tier 2 <= Tier 3;
// tiny runs flat; als nearly constant across scales; repartition/bayes/
// lda/pagerank more degradation-sensitive than sort/als/rf.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  print_header("FIGURE 2 (top)", "execution time per app x scale x tier");

  const auto runs = runner::run_sweep(fig2_spec(), bench_runner_options());
  const auto groups = runner::group_by_workload(runs);

  TablePrinter table({"app", "scale", "T0 (s)", "T1 (s)", "T2 (s)", "T3 (s)",
                      "T1/T0", "T2/T0", "T3/T0"});
  for (const auto& [key, tier_runs] : groups) {
    const double t0 = tier_runs[0]->exec_time.sec();
    table.add_row({to_string(key.first), to_string(key.second),
                   fmt_seconds(tier_runs[0]->exec_time),
                   fmt_seconds(tier_runs[1]->exec_time),
                   fmt_seconds(tier_runs[2]->exec_time),
                   fmt_seconds(tier_runs[3]->exec_time),
                   TablePrinter::num(tier_runs[1]->exec_time.sec() / t0, 2),
                   TablePrinter::num(tier_runs[2]->exec_time.sec() / t0, 2),
                   TablePrinter::num(tier_runs[3]->exec_time.sec() / t0, 2)});
  }
  table.print(std::cout);

  std::printf(
      "\nPaper shape checks:\n"
      "  * monotone tier degradation on sizable inputs\n"
      "  * tiny inputs and als tolerate remote tiers (ratios ~1.0)\n"
      "  * sensitive class (repartition/bayes/lda/pagerank) degrades more\n"
      "    than tolerant class (sort/als/rf) relative to its own baseline\n");
  return 0;
}
