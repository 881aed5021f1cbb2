// Extension experiment (paper Sec. IV-G): "there is also plenty [of] room
// for exploration w.r.t. determining the optimal memory tier per access
// type". The engine can bind heap, shuffle and cache traffic to different
// tiers; this bench sweeps mixed placements for the shuffle-heavy and the
// cache-heavy workloads and reports where each access type tolerates NVM.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace tsx;
using namespace tsx::bench;
using namespace tsx::workloads;

struct Placement {
  const char* name;
  mem::TierId heap;
  std::optional<mem::TierId> shuffle;
  std::optional<mem::TierId> cache;
};

}  // namespace

int main() {
  print_header("EXTENSION", "per-access-type tier placement (Sec. IV-G)");

  const Placement placements[] = {
      {"all on DRAM (Tier 0)", mem::TierId::kTier0, {}, {}},
      {"all on NVM (Tier 2)", mem::TierId::kTier2, {}, {}},
      {"heap DRAM, shuffle NVM", mem::TierId::kTier0, mem::TierId::kTier2,
       {}},
      {"heap NVM, shuffle DRAM", mem::TierId::kTier2, mem::TierId::kTier0,
       {}},
      {"heap DRAM, cache NVM", mem::TierId::kTier0, {}, mem::TierId::kTier2},
      {"heap NVM, cache DRAM", mem::TierId::kTier2, {}, mem::TierId::kTier0},
  };

  // Placement tuples are not a cross product, so build the config list by
  // hand and hand it straight to the ParallelRunner.
  const App apps[] = {App::kPagerank, App::kLda, App::kBayes};
  std::vector<RunConfig> configs;
  for (const App app : apps) {
    for (const Placement& p : placements) {
      RunConfig cfg;
      cfg.app = app;
      cfg.scale = ScaleId::kLarge;
      cfg.tier = p.heap;
      cfg.shuffle_tier = p.shuffle;
      cfg.cache_tier = p.cache;
      configs.push_back(cfg);
    }
  }
  const auto runs =
      runner::ParallelRunner(bench_runner_options()).run(configs);

  constexpr std::size_t kNumPlacements = std::size(placements);
  for (std::size_t a = 0; a < std::size(apps); ++a) {
    std::printf("--- %s-large\n", to_string(apps[a]).c_str());
    TablePrinter table({"placement", "exec time (s)", "vs all-DRAM"});
    const double all_dram = runs[a * kNumPlacements].exec_time.sec();
    for (std::size_t p = 0; p < kNumPlacements; ++p) {
      const RunResult& r = runs[a * kNumPlacements + p];
      table.add_row({placements[p].name,
                     TablePrinter::num(r.exec_time.sec(), 2),
                     TablePrinter::num(r.exec_time.sec() / all_dram, 2) +
                         "x"});
    }
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf(
      "Reading: mixed placements land between the all-DRAM and all-NVM\n"
      "extremes; keeping the *heap* (dependent accesses) on DRAM recovers\n"
      "most of the all-DRAM performance even with shuffle or cached blocks\n"
      "on NVM — the latency-bound access type is the one that must stay\n"
      "near, the streaming types tolerate the far tier (Takeaway 4 applied\n"
      "as a placement guideline).\n");
  return 0;
}
