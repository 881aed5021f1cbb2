// tier_advisor: the Sec. IV-F / Takeaway 8 workflow as a tool.
//
// Profiles a workload on tiers it has "access to" (by default the DRAM
// tiers 0-1 plus the near NVM tier 2), fits the linear tier-performance
// model over (latency, 1/bandwidth), and predicts execution time on the
// unobserved tier — then verifies against a real run and reports the
// prediction error.
//
// Usage:
//   tier_advisor [app] [--scale=large] [--predict-tier=3]
#include <cstdio>
#include <iostream>

#include "analysis/predictor.hpp"
#include "core/config.hpp"
#include "core/table.hpp"
#include "runner/parallel_runner.hpp"
#include "workloads/runner.hpp"

int main(int argc, char** argv) {
  using namespace tsx;
  using namespace tsx::workloads;

  Config cli;
  const auto positional = cli.parse_args(argc, argv);
  const App app =
      positional.empty() ? App::kBayes : app_from_name(positional[0]);
  const ScaleId scale = scale_from_label(cli.get_or("scale", "large"));
  const mem::TierId target =
      mem::tier_from_index(cli.get_int_in_or("predict-tier", 3, 0, 3));

  std::printf("tier_advisor: predicting %s-%s on %s from the other tiers\n\n",
              to_string(app).c_str(), to_string(scale).c_str(),
              mem::to_string(target).c_str());

  const auto runs = runner::run_sweep(
      runner::SweepSpec().apps({app}).scales({scale}).all_tiers());
  std::vector<RunResult> observed;
  RunResult truth;
  for (const RunResult& r : runs) {
    if (r.config.tier == target)
      truth = r;
    else
      observed.push_back(r);
  }

  TablePrinter profile({"tier", "observed time (s)"});
  for (const auto& r : observed)
    profile.add_row({mem::to_string(r.config.tier),
                     TablePrinter::num(r.exec_time.sec(), 2)});
  profile.print(std::cout);

  const analysis::TierPredictor model = analysis::TierPredictor::fit(observed);
  const Duration predicted =
      model.predict(mem::testbed_topology(), 1, target);

  std::printf(
      "\nLinear model: time = %.3f + %.5f*latency(ns) + %.3f/bandwidth(GB/s)"
      "   (R^2 on fit set: %.3f)\n",
      model.model().beta[0], model.model().beta[1], model.model().beta[2],
      model.model().r_squared);
  std::printf("Predicted %s time: %.2f s\n", mem::to_string(target).c_str(),
              predicted.sec());
  std::printf("Measured  %s time: %.2f s\n", mem::to_string(target).c_str(),
              truth.exec_time.sec());
  std::printf("Relative error: %.1f%%\n",
              100.0 * model.relative_error(truth));
  std::printf(
      "\n(Takeaway 8: hardware specs correlate near-linearly with execution\n"
      "time, so simple models give usable cross-tier estimates; the far NVM\n"
      "tier's bandwidth collapse is the hardest extrapolation.)\n");
  return 0;
}
