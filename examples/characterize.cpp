// characterize: run a configurable slice of the paper's characterization
// sweep and dump machine-readable CSV (for external plotting/analysis).
//
// Usage:
//   characterize [--apps=sort,bayes] [--scales=tiny,small,large]
//                [--tiers=0,1,2,3] [--repeats=1] [--seed=42]
//                [--machine=nvm|cxl] [--threads=0] [--out=/dev/stdout]
//   characterize --apps=lda --tiers=0,2 --repeats=3
//
// Runs fan out over a runner::ParallelRunner (--threads=0 uses every core)
// with live progress on stderr; the CSV keeps sweep order regardless.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "runner/parallel_runner.hpp"
#include "workloads/report.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace tsx;
  using namespace tsx::workloads;

  Config cli;
  cli.parse_args(argc, argv);

  std::vector<App> apps;
  for (const auto& name :
       split(cli.get_or("apps", "sort,repartition,als,bayes,rf,lda,pagerank"),
             ','))
    apps.push_back(app_from_name(name));
  std::vector<ScaleId> scales;
  for (const auto& label : split(cli.get_or("scales", "tiny,small,large"), ','))
    scales.push_back(scale_from_label(label));
  std::vector<mem::TierId> tiers;
  for (const auto& t : split(cli.get_or("tiers", "0,1,2,3"), ','))
    tiers.push_back(mem::tier_from_index(parse_int(t, "--tiers", 0, 3)));
  const int repeats = cli.get_int_in_or("repeats", 1, 1, 1000);
  const auto machine = cli.get_or("machine", "nvm") == "cxl"
                           ? MachineVariant::kDramCxl
                           : MachineVariant::kDramNvm;

  const runner::SweepSpec spec =
      runner::SweepSpec()
          .apps(apps)
          .scales(scales)
          .tiers(tiers)
          .machines({machine})
          .seed(parse_u64(cli.get_or("seed", "42"), "--seed"))
          .repeats(repeats);

  runner::RunnerOptions options;
  options.threads = cli.get_int_in_or("threads", 0, 0, 1024);
  options.progress = [](const runner::Progress& p) {
    std::fprintf(stderr, "progress: %zu/%zu runs (%.1f s elapsed)\n",
                 p.completed, p.total, p.elapsed_seconds);
  };
  runner::ParallelRunner parallel(options);
  std::fprintf(stderr, "characterize: %zu runs on %d threads\n", spec.size(),
               parallel.thread_count());
  const std::vector<RunResult> results = parallel.run(spec);

  const std::string csv = results_to_csv(results);
  const std::string out = cli.get_or("out", "");
  if (out.empty() || out == "/dev/stdout") {
    std::cout << csv;
  } else {
    std::ofstream file(out);
    file << csv;
    std::fprintf(stderr, "wrote %zu runs to %s\n", results.size(),
                 out.c_str());
  }
  return 0;
}
