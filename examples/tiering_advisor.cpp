// tiering_advisor: picks a page-migration policy for one deployment.
//
// Runs a workload bound to a capacity tier under every tiering policy
// (static numactl baseline + the two dynamic ones), itemizes what each
// policy paid for its speedup — copy time, NVM media bytes, NVM write
// energy — and recommends the fastest. With
// --trace the winner is re-run with the observability plane on and its
// most recent migration spans are dumped.
//
// Usage:
//   tiering_advisor [app] [--scale=large] [--tier=2] [--epoch-ms=10]
//                   [--carve-gib=8] [--trace] [--trace-limit=20]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "obs/recorder.hpp"
#include "runner/parallel_runner.hpp"
#include "workloads/runner.hpp"

namespace {

/// The value of a span's `key` arg ("" when absent).
std::string arg(const tsx::obs::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.args)
    if (k == key) return v;
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsx;
  using namespace tsx::workloads;

  Config cli;
  const auto positional = cli.parse_args(argc, argv);
  const App app =
      positional.empty() ? App::kPagerank : app_from_name(positional[0]);
  const ScaleId scale = scale_from_label(cli.get_or("scale", "large"));
  const mem::TierId tier =
      mem::tier_from_index(cli.get_int_in_or("tier", 2, 0, 3));

  tiering::TieringConfig knobs;
  knobs.epoch_ms = cli.get_double_or("epoch-ms", 10.0);
  knobs.fast_capacity_gib = cli.get_double_or("carve-gib", 8.0);
  const bool trace = cli.get_bool_or("trace", false);
  const auto limit = static_cast<std::size_t>(
      cli.get_int_in_or("trace-limit", 20, 0, 1000000));

  std::printf("tiering_advisor: %s-%s bound to %s, %.1f MiB DRAM carve-out\n\n",
              to_string(app).c_str(), to_string(scale).c_str(),
              mem::to_string(tier).c_str(),
              knobs.fast_capacity_gib * 1024.0);

  const auto runs = runner::run_sweep(runner::SweepSpec()
                                          .apps({app})
                                          .scales({scale})
                                          .tiers({tier})
                                          .tiering(knobs)
                                          .all_tiering_policies());

  const RunResult& baseline = runs.front();  // policy axis starts at static
  const RunResult* best = &baseline;
  TablePrinter table({"policy", "time (s)", "vs static", "promo", "demo",
                      "migr (s)", "nvm MB", "wr energy (J)"});
  for (const RunResult& r : runs) {
    if (r.exec_time.sec() < best->exec_time.sec()) best = &r;
    table.add_row(
        {tiering::to_string(r.config.tiering.policy),
         TablePrinter::num(r.exec_time.sec(), 3),
         TablePrinter::num(baseline.exec_time.sec() / r.exec_time.sec(), 3) +
             "x",
         std::to_string(r.tiering.promotions),
         std::to_string(r.tiering.demotions),
         TablePrinter::num(r.tiering.migration_seconds, 4),
         TablePrinter::num(r.tiering.nvm_bytes_written.b() / 1048576.0, 3),
         TablePrinter::num(r.tiering.nvm_write_energy.j(), 6)});
  }
  table.print(std::cout);

  const tiering::PolicyKind winner = best->config.tiering.policy;
  std::printf("\nRecommendation: %s (%.3fx vs the static bind)\n",
              tiering::to_string(winner).c_str(),
              baseline.exec_time.sec() / best->exec_time.sec());
  if (winner == tiering::PolicyKind::kStatic)
    std::printf("  (no dynamic policy pays for its copies here — keep the\n"
                "   numactl placement, or grow the carve-out)\n");

  if (trace) {
    // Re-run the winner (or, if static won, lfu-promote so there is
    // something to look at) with the observability plane on and dump its
    // migration spans. Filter on the category: DFS repair spans share the
    // migration span kind.
    RunConfig traced;
    traced.app = app;
    traced.scale = scale;
    traced.tier = tier;
    traced.tiering = knobs;
    traced.tiering.policy = winner == tiering::PolicyKind::kStatic
                                ? tiering::PolicyKind::kLfuPromote
                                : winner;
    traced.obs.enabled = true;
    const RunResult run = run_workload(traced);
    std::vector<const obs::Span*> migrations;
    for (const obs::Span& span : run.trace->spans())
      if (starts_with(span.category, "tiering.")) migrations.push_back(&span);
    std::printf("\nmigration trace (%s; %zu migrations, showing last %zu):\n",
                tiering::to_string(traced.tiering.policy).c_str(),
                migrations.size(), std::min(limit, migrations.size()));
    const std::size_t start =
        migrations.size() > limit ? migrations.size() - limit : 0;
    for (std::size_t i = start; i < migrations.size(); ++i) {
      const obs::Span& m = *migrations[i];
      // Span names read "promote:<region>" / "demote:<region>".
      std::printf("  %10.6fs  %-15s region=%s %s -> %s %s\n", m.start.sec(),
                  m.category.c_str(),
                  m.name.substr(m.name.find(':') + 1).c_str(),
                  arg(m, "from").c_str(), arg(m, "to").c_str(),
                  to_string(Bytes::of(std::stod(arg(m, "bytes")))).c_str());
    }
  }
  return 0;
}
