// Fig. 2 (middle) reproduction: number of read and write accesses to the
// NVDIMMs (ipmctl media counters) per app x scale when bound to the NVM
// tier (Tier 2), plus the write:read ratio Sec. IV-B discusses.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("FIGURE 2 (middle)", "NVDIMM media reads/writes per run");

  const auto runs =
      runner::run_sweep(runner::SweepSpec().all_apps().all_scales().tiers(
                            {mem::TierId::kTier2}),
                        bench_runner_options());

  TablePrinter table({"app", "scale", "media reads", "media writes",
                      "write/read", "exec time (s)"});
  for (const RunResult& r : runs) {
    table.add_row({to_string(r.config.app), to_string(r.config.scale),
                   std::to_string(r.nvdimm.media_reads),
                   std::to_string(r.nvdimm.media_writes),
                   TablePrinter::num(r.nvdimm.write_read_ratio(), 2),
                   fmt_seconds(r.exec_time)});
  }
  table.print(std::cout);

  std::printf(
      "\nPaper shape checks:\n"
      "  * accesses grow with workload size; bayes/lda/pagerank are an\n"
      "    order of magnitude above the light ML apps\n"
      "  * lda-large has the standout write:read ratio (its execution time\n"
      "    on NVM 'skyrockets proportionally to the write operations')\n"
      "  * apps with more total accesses degrade more (Takeaway 3)\n");
  return 0;
}
