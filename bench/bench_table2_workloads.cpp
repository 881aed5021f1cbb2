// Table II reproduction: the examined Spark applications and their
// tiny/small/large dataset sizes, plus this reproduction's host-sample
// plan (virtual scaling) and a generator sanity run per workload.
#include <cstdio>

#include "bench_util.hpp"
#include "core/table.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::workloads;
  tsx::bench::print_header("TABLE II", "examined applications & data sizes");

  TablePrinter table({"application", "abbr", "category", "tiny", "small",
                      "large"});
  table.add_row({"Sorting of text input data", "sort", "micro", "32KB",
                 "320MB", "3.2GB"});
  table.add_row({"Performs shuffle operations", "repartition", "micro",
                 "3.2KB", "3.2MB", "32MB"});
  table.add_row({"Alternating Least Squares", "als", "ml",
                 "100u/100p/200r", "1k/1k/2k", "10k/10k/20k"});
  table.add_row({"Naive Bayes classification", "bayes", "ml",
                 "25k pages/10cls", "30k/100", "100k/100"});
  table.add_row({"Random forest", "rf", "ml", "10ex/100f", "100/500",
                 "1000/1000"});
  table.add_row({"Latent Dirichlet Allocation", "lda", "ml",
                 "2k docs/1k voc/10t", "5k/2k/20", "10k/3k/30"});
  table.add_row({"PageRank", "pagerank", "websearch", "50 pages", "5000",
                 "500000"});
  table.print(std::cout);

  std::printf("\nReproduction sanity: every app validates at every scale "
              "(Tier 0 run):\n\n");
  const auto runs =
      runner::run_sweep(runner::SweepSpec().all_apps().all_scales(),
                        tsx::bench::bench_runner_options());
  TablePrinter sanity({"app", "scale", "valid", "tasks", "exec time (s)",
                       "self-check"});
  for (const RunResult& r : runs) {
    sanity.add_row({to_string(r.config.app), to_string(r.config.scale),
                    r.valid ? "yes" : "NO", std::to_string(r.tasks),
                    TablePrinter::num(r.exec_time.sec(), 2), r.validation});
  }
  sanity.print(std::cout);
  return 0;
}
