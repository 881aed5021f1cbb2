// Fig. 5 reproduction: Pearson correlation of system-level events with
// execution time, per application, over local (Tier 0) runs across the
// three input scales with repeated seeds — the Sec. IV-F basis for
// "system-level events can predict performance" (Takeaway 8).
#include <cstdio>

#include "analysis/correlation_study.hpp"
#include "bench_util.hpp"

int main() {
  using namespace tsx;
  using namespace tsx::bench;
  using namespace tsx::workloads;
  print_header("FIGURE 5", "event vs execution-time correlation (Tier 0)");

  constexpr int kRepeats = 4;

  std::vector<std::string> headers = {"event"};
  for (const App app : kAllApps) headers.push_back(to_string(app));
  TablePrinter table(headers);

  // Collect correlations per app first (column-major build). The repeat
  // axis is innermost, so each scale's repeats run back to back with the
  // seeds SweepSpec::repeats derives.
  std::vector<std::vector<analysis::EventCorrelation>> columns;
  for (const App app : kAllApps) {
    const auto runs = runner::run_sweep(runner::SweepSpec()
                                            .apps({app})
                                            .all_scales()
                                            .tiers({mem::TierId::kTier0})
                                            .repeats(kRepeats),
                                        bench_runner_options());
    columns.push_back(analysis::event_time_correlation(runs));
  }

  for (int e = 0; e < metrics::kNumSysEvents; ++e) {
    std::vector<std::string> row = {
        metrics::to_string(static_cast<metrics::SysEvent>(e))};
    for (std::size_t a = 0; a < columns.size(); ++a)
      row.push_back(TablePrinter::num(
          columns[a][static_cast<std::size_t>(e)].pearson, 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::printf(
      "\nPaper shape checks:\n"
      "  * bayes shows near-linear correlation with almost every event\n"
      "  * counter-class events (instructions, llc, mem reads/writes) track\n"
      "    execution time strongly for the aggregation-heavy apps\n");
  return 0;
}
