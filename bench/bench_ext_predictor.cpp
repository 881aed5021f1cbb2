// Extension experiment (Takeaway 8, realized): cross-workload performance
// prediction. A single linear model — trained jointly over several
// workloads on the DRAM tiers + near NVM, with features combining each
// workload's Tier-0 event profile and the target tier's specs — predicts:
//   (a) the far NVM tier (Tier 3) for trained workloads (extrapolation),
//   (b) all tiers of a *held-out* workload from its Tier-0 profile alone.
#include <cstdio>

#include "analysis/cross_predictor.hpp"
#include "bench_util.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("EXTENSION", "cross-workload tier-performance prediction");

  // Characterize: all apps at small+large, all tiers.
  const std::vector<RunResult> all = runner::run_sweep(
      runner::SweepSpec()
          .all_apps()
          .scales({ScaleId::kSmall, ScaleId::kLarge})
          .all_tiers(),
      bench_runner_options());
  std::vector<RunResult> profiles;
  for (const RunResult& r : all)
    if (r.config.tier == mem::TierId::kTier0) profiles.push_back(r);

  // (a) Extrapolate Tier 3 from Tiers 0-2.
  std::vector<RunResult> train_t012;
  for (const RunResult& r : all)
    if (r.config.tier != mem::TierId::kTier3) train_t012.push_back(r);
  const analysis::CrossWorkloadPredictor extrapolator =
      analysis::CrossWorkloadPredictor::fit(train_t012, profiles);

  std::printf("(a) Tier-3 extrapolation (trained on Tiers 0-2, all apps)\n");
  TablePrinter t3({"app", "scale", "measured T3 (s)", "predicted T3 (s)",
                   "rel err"});
  for (const RunResult& r : all) {
    if (r.config.tier != mem::TierId::kTier3) continue;
    const RunResult* profile = nullptr;
    for (const RunResult& p : profiles)
      if (p.config.app == r.config.app && p.config.scale == r.config.scale)
        profile = &p;
    const double predicted =
        extrapolator.predict(*profile, mem::TierId::kTier3).sec();
    t3.add_row({to_string(r.config.app), to_string(r.config.scale),
                TablePrinter::num(r.exec_time.sec(), 2),
                TablePrinter::num(predicted, 2),
                TablePrinter::num(
                    extrapolator.relative_error(*profile, r), 2)});
  }
  t3.print(std::cout);

  // (b) Hold out each app entirely; predict its Tier-2 run from its
  // Tier-0 profile with a model that never saw the app.
  std::printf("\n(b) Held-out workload generalization (predict Tier 2)\n");
  TablePrinter loo({"held-out app", "scale", "measured T2 (s)",
                    "predicted T2 (s)", "rel err"});
  for (const App held : kAllApps) {
    std::vector<RunResult> train;
    for (const RunResult& r : all)
      if (r.config.app != held) train.push_back(r);
    const analysis::CrossWorkloadPredictor model =
        analysis::CrossWorkloadPredictor::fit(train, profiles);
    for (const RunResult& r : all) {
      if (r.config.app != held || r.config.tier != mem::TierId::kTier2)
        continue;
      const RunResult* profile = nullptr;
      for (const RunResult& p : profiles)
        if (p.config.app == held && p.config.scale == r.config.scale)
          profile = &p;
      loo.add_row({to_string(held), to_string(r.config.scale),
                   TablePrinter::num(r.exec_time.sec(), 2),
                   TablePrinter::num(
                       model.predict(*profile, mem::TierId::kTier2).sec(),
                       2),
                   TablePrinter::num(model.relative_error(*profile, r), 2)});
    }
  }
  loo.print(std::cout);

  std::printf(
      "\nReading: one linear model over (Tier-0 events x tier specs) gives\n"
      "usable cross-tier estimates without ever running most workloads\n"
      "remotely — the prediction workflow Sec. IV-F proposes. Tier 3 is the\n"
      "hardest target (its bandwidth collapse is a regime change a linear\n"
      "model can only approximate).\n");
  return 0;
}
