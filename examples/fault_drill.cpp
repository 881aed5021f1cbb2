// Fault drill: break a Spark run on purpose and watch it recover.
//
// Picks a named fault scenario (crash, dimm-offline, straggler,
// bw-collapse, uce, chaos), arms the fault plane over one workload, and
// prints the recovery timeline — every injection and every recovery
// action, in virtual-time order, from the run's `fault.*` trace instants —
// next to the itemized bill: retries, lineage recomputations, backoff
// waits, rerouted traffic, and the slowdown versus the same run without
// faults. Because the schedule is a pure function of (seed ^ salt),
// re-running with the same flags replays the identical drill; change
// --salt to draw a different one. Storage scenarios (datanode-loss,
// rack-offline, dimm-datanode, crash-rack) run on the RS(6,3) cluster of
// fault::storage_drill_dfs(), the clean twin included.
//
// Usage: fault_drill [--scenario=crash] [--app=pagerank] [--scale=small]
//                    [--tier=2] [--seed=42] [--salt=0] [--timeline=30]
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "fault/scenario.hpp"
#include "obs/recorder.hpp"
#include "workloads/runner.hpp"

namespace {

const char* arg_value(int argc, char** argv, const char* name,
                      const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return argv[i] + prefix.size();
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsx;
  using namespace tsx::workloads;

  const std::string scenario_name = arg_value(argc, argv, "scenario", "crash");
  const std::string app_name = arg_value(argc, argv, "app", "pagerank");
  const std::string scale_name = arg_value(argc, argv, "scale", "small");
  const App app = app_from_name(app_name);
  const ScaleId scale = scale_from_label(scale_name);
  const int timeline_rows = parse_int(arg_value(argc, argv, "timeline", "30"),
                                      "--timeline", 0, 1000000);

  RunConfig cfg;
  cfg.app = app;
  cfg.scale = scale;
  cfg.tier = mem::tier_from_index(
      parse_int(arg_value(argc, argv, "tier", "2"), "--tier", 0, 3));
  cfg.executors = 2;
  cfg.cores_per_executor = 20;
  cfg.seed = parse_u64(arg_value(argc, argv, "seed", "42"), "--seed");
  cfg.fault = fault::scenario(scenario_name);
  cfg.fault.salt = parse_u64(arg_value(argc, argv, "salt", "0"), "--salt");
  // Storage faults need a DFS cluster that can lose a failure domain and
  // still serve; the single-node default cannot.
  std::string cluster;
  if (cfg.fault.storage_faults()) {
    cfg.dfs = fault::storage_drill_dfs();
    cluster = strfmt(", dfs RS(%d,%d) on %d racks x %d nodes", cfg.dfs.rs_k,
                     cfg.dfs.rs_m, cfg.dfs.racks, cfg.dfs.nodes_per_rack);
  }

  std::printf("fault drill: %s on %s/%s, heap on %s%s, seed %llu salt %llu\n\n",
              scenario_name.c_str(), app_name.c_str(), scale_name.c_str(),
              mem::to_string(cfg.tier).c_str(), cluster.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.fault.salt));

  // The clean twin: same config, fault plane disarmed. Also calibrates
  // crash placement — launch and registration overheads run no tasks for
  // the first ~2.5 virtual seconds, so aim the crash window at the middle
  // of the compute phase.
  RunConfig clean = cfg;
  clean.fault = fault::FaultConfig{};
  const RunResult base = run_workload(clean);
  if (cfg.fault.executor_crashes > 0 && scenario_name != "chaos") {
    const double ramp = 2.5;
    const double compute =
        base.exec_time.sec() > ramp ? base.exec_time.sec() - ramp : 1.0;
    cfg.fault.crash_offset_s = ramp + 0.25 * compute;
    cfg.fault.crash_window_s = 0.5 * compute;
    cfg.fault.restart_delay_s = 0.5;
  }

  // The drill runs with the observability plane on: its `fault.*` instants
  // are the recovery timeline, in virtual-time order.
  cfg.obs.enabled = true;
  const RunResult run = run_workload(cfg);
  std::vector<const obs::Span*> events;
  for (const obs::Span& span : run.trace->spans())
    if (span.kind == obs::SpanKind::kInstant &&
        starts_with(span.category, "fault."))
      events.push_back(&span);
  std::printf("recovery timeline (%zu events):\n", events.size());
  const std::size_t first =
      timeline_rows > 0 &&
              events.size() > static_cast<std::size_t>(timeline_rows)
          ? events.size() - static_cast<std::size_t>(timeline_rows)
          : 0;
  if (first > 0) std::printf("  ... %zu earlier events elided ...\n", first);
  for (std::size_t i = first; i < events.size(); ++i)
    std::printf("  %8.4fs  %-13s  %s\n", events[i]->start.sec(),
                events[i]->category.c_str(), events[i]->name.c_str());

  const fault::FaultStats& f = run.fault;
  TablePrinter bill({"recovery bill", "count"});
  bill.add_row({"executor crashes", std::to_string(f.crashes)});
  bill.add_row({"tier-offline events", std::to_string(f.tier_offline_events)});
  bill.add_row({"uncorrectable errors", std::to_string(f.uce_events)});
  bill.add_row({"bandwidth collapses", std::to_string(f.bw_collapses)});
  bill.add_row({"stragglers", std::to_string(f.stragglers)});
  bill.add_row({"lost cached blocks", std::to_string(f.lost_cache_blocks)});
  bill.add_row(
      {"lost shuffle outputs", std::to_string(f.lost_shuffle_outputs)});
  bill.add_row({"task failures", std::to_string(f.task_failures)});
  bill.add_row({"retries", std::to_string(f.retries)});
  bill.add_row(
      {"lineage recomputations", std::to_string(f.recomputed_map_tasks)});
  bill.add_row(
      {"speculative launches", std::to_string(f.speculative_launches)});
  bill.add_row({"speculative wins", std::to_string(f.speculative_wins)});
  bill.add_row({"rerouted requests", std::to_string(f.rerouted_requests)});
  bill.add_row(
      {"rerouted MB", TablePrinter::num(f.rerouted_bytes.b() / 1048576.0, 2)});
  bill.add_row(
      {"backoff wait (s)", TablePrinter::num(f.backoff_wait_seconds, 3)});
  std::printf("\n");
  bill.print(std::cout);

  const bool recovered = run.valid && run.validation == base.validation;
  std::printf(
      "\nclean run:   %.3fs  [%s]\n"
      "faulted run: %.3fs  (%.3fx)  [%s]\n"
      "recovered to the identical answer: %s\n",
      base.exec_time.sec(), base.validation.c_str(), run.exec_time.sec(),
      run.exec_time.sec() / base.exec_time.sec(), run.validation.c_str(),
      recovered ? "yes" : "NO");
  return recovered ? 0 : 1;
}
