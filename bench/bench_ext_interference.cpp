// Extension experiment: co-located tenant interference.
//
// Disaggregated memory is shared infrastructure; the paper's Takeaway 6
// (and its citation of contention-aware performance prediction, ref [32])
// concern exactly this: what happens when someone else's traffic rides the
// same tier. This bench runs each workload on the NVM tier while a
// background tenant streams 0..8 GB/s through the same channel, and on the
// DRAM tier for contrast — showing that persistent memory, with its small
// headroom, is far more interference-sensitive than DRAM.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("EXTENSION", "noisy-neighbor interference per tier");

  const std::vector<double> loads = {0.0, 1.0, 2.0, 4.0, 8.0};

  for (const App app : {App::kBayes, App::kPagerank, App::kSort}) {
    // Tier is enumerated outside background load: all Tier-0 runs first,
    // then all Tier-2 runs, each in `loads` order.
    const auto runs = runner::run_sweep(
        runner::SweepSpec()
            .apps({app})
            .scales({ScaleId::kLarge})
            .tiers({mem::TierId::kTier0, mem::TierId::kTier2})
            .background_loads(loads),
        bench_runner_options());

    TablePrinter table({"background GB/s", "Tier 0 (s)", "slowdown",
                        "Tier 2 (s)", "slowdown"});
    const double base0 = runs[0].exec_time.sec();
    const double base2 = runs[loads.size()].exec_time.sec();
    for (std::size_t l = 0; l < loads.size(); ++l) {
      const RunResult& dram = runs[l];
      const RunResult& nvm = runs[loads.size() + l];
      table.add_row({TablePrinter::num(loads[l], 1),
                     TablePrinter::num(dram.exec_time.sec(), 2),
                     TablePrinter::num(dram.exec_time.sec() / base0, 2) + "x",
                     TablePrinter::num(nvm.exec_time.sec(), 2),
                     TablePrinter::num(nvm.exec_time.sec() / base2, 2) + "x"});
    }
    std::printf("--- %s-large under co-located streaming load\n",
                to_string(app).c_str());
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf(
      "Reading: the same background stream that DRAM absorbs (39.3 GB/s of\n"
      "headroom) visibly squeezes the NVM tier (10.7 GB/s) — persistent\n"
      "memory is 'even more susceptible to resource contention' (Takeaway 6),\n"
      "which is why contention-aware prediction matters for disaggregated\n"
      "deployments.\n");
  return 0;
}
