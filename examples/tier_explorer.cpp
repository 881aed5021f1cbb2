// tier_explorer: run one of the seven workloads across all memory tiers
// (and optionally all scales) and print the Fig.-2-style characterization
// row for it — execution time, NVDIMM media counters, DIMM energy, wear.
//
// Usage:
//   tier_explorer [app] [--scale=tiny|small|large|all] [--seed=42]
//                 [--executors=1] [--cores=40]
//   tier_explorer pagerank --scale=large
#include <cstdio>
#include <iostream>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "runner/parallel_runner.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace tsx;
  using namespace tsx::workloads;

  Config cli;
  const auto positional = cli.parse_args(argc, argv);
  const App app =
      positional.empty() ? App::kSort : app_from_name(positional[0]);
  const std::string scale_arg = cli.get_or("scale", "all");
  const std::uint64_t seed = parse_u64(cli.get_or("seed", "42"), "--seed");

  std::vector<ScaleId> scales;
  if (scale_arg == "all")
    scales.assign(kAllScales.begin(), kAllScales.end());
  else
    scales.push_back(scale_from_label(scale_arg));

  std::printf("tier_explorer: %s (%s category)\n\n", to_string(app).c_str(),
              to_string(category_of(app)).c_str());

  const auto runs = runner::run_sweep(
      runner::SweepSpec()
          .apps({app})
          .scales(scales)
          .all_tiers()
          .deployments(
              {{cli.get_int_in_or("executors", 1, 1, 1024),
                cli.get_int_in_or("cores", 40, 1, 1024)}})
          .seed(seed));

  TablePrinter table({"scale", "tier", "exec time (s)", "vs T0",
                      "NVM media R", "NVM media W", "bound J/DIMM",
                      "NVM life used", "valid"});
  double t0 = 0.0;
  for (const RunResult& r : runs) {
    if (r.config.tier == mem::TierId::kTier0) t0 = r.exec_time.sec();
    table.add_row(
        {to_string(r.config.scale), mem::to_string(r.config.tier),
         TablePrinter::num(r.exec_time.sec(), 2),
         TablePrinter::num(r.exec_time.sec() / t0, 2) + "x",
         std::to_string(r.nvdimm.media_reads),
         std::to_string(r.nvdimm.media_writes),
         TablePrinter::num(r.bound_node_energy_per_dimm().j(), 1),
         strfmt("%.2e", r.wear.lifetime_fraction_used),
         r.valid ? "yes" : "NO"});
  }
  table.print(std::cout);
  return 0;
}
