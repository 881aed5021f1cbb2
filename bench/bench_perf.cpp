// The parallel data plane's identity gate (DESIGN.md §11), plus one
// stdout table. It writes no file: speed is measured by perfbench/.
//
// Part 1 is the determinism gate: the full Fig. 2 sweep (every app x scale
// x tier) runs with the observability plane on and must produce
// byte-identical RunResult JSON, exported metrics JSONL *and* Chrome trace
// bytes with TSX_TASK_THREADS in {1, 4, 8} — the parallel data plane must
// be invisible in every serialized artifact, span ids included. Every run
// goes through a plain serial run_workload loop — no ParallelRunner (an
// active sweep would clamp the inner pools through the thread budget). A
// mismatch exits 1.
//
// Part 2 turns the observability plane on for small pagerank on DRAM and on
// NVM and prints the run span's per-phase tier-time attribution (in
// simulated seconds) — the paper's where-does-the-time-go breakdown.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mem/tier.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "runner/serialize.hpp"
#include "workloads/scales.hpp"

namespace {

using namespace tsx;
using namespace tsx::bench;
using namespace tsx::workloads;

void set_task_threads(int threads) {
  if (threads <= 1) {
    unsetenv("TSX_TASK_THREADS");
  } else {
    setenv("TSX_TASK_THREADS", std::to_string(threads).c_str(), 1);
  }
}

/// Every serialized artifact of one run, concatenated: RunResult JSON,
/// metrics JSONL, Chrome trace bytes. The gate compares this triple so a
/// thread-count-dependent span id or counter cannot hide in a side artifact.
std::string run_artifacts(RunConfig cfg) {
  cfg.obs.enabled = true;
  const RunResult result = run_workload(cfg);
  std::string all = runner::to_json(result);
  all += '\x1f';
  all += obs::metrics_jsonl(result.trace->metrics());
  all += '\x1f';
  all += obs::chrome_trace_json(*result.trace);
  return all;
}

}  // namespace

int main() {
  print_header("PERF", "intra-run parallel data plane: identity gate");

  // --- Part 1: 84-config bit-identity gate ------------------------------
  // Results + metrics + trace bytes, all three compared per config.
  const auto configs = fig2_spec().enumerate();
  set_task_threads(1);
  std::vector<std::string> reference;
  reference.reserve(configs.size());
  for (const RunConfig& cfg : configs) reference.push_back(run_artifacts(cfg));

  std::size_t mismatches = 0;
  for (const int threads : {4, 8}) {
    set_task_threads(threads);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (run_artifacts(configs[i]) != reference[i]) {
        ++mismatches;
        std::printf("MISMATCH at %d threads: %s\n", threads,
                    configs[i].describe().c_str());
      }
    }
  }
  set_task_threads(1);
  std::printf(
      "bit-identity gate: %zu configs x {1,4,8} threads x "
      "{results, metrics, trace}, %zu mismatches%s\n\n",
      configs.size(), mismatches,
      mismatches == 0 ? " (the parallel plane is invisible in the results)"
                      : "");
  if (mismatches != 0) return 1;

  // --- Part 2: per-phase tier-time attribution (pagerank, DRAM vs NVM) ---
  TablePrinter atable({"pagerank on", "run (s)", "queue_wait", "compute",
                       "dram", "nvm", "migration", "other"});
  for (const mem::TierId tier : {mem::TierId::kTier0, mem::TierId::kTier2}) {
    RunConfig cfg;
    cfg.app = App::kPagerank;
    cfg.scale = ScaleId::kSmall;
    cfg.tier = tier;
    cfg.obs.enabled = true;
    const RunResult result = run_workload(cfg);
    const obs::Span* run_span = nullptr;
    for (const obs::Span& s : result.trace->spans())
      if (s.kind == obs::SpanKind::kRun) run_span = &s;
    if (run_span == nullptr) continue;  // cannot happen when obs is on
    const obs::TimeAttribution& attr = run_span->attr;
    atable.add_row(
        {tier == mem::TierId::kTier0 ? "dram" : "nvm",
         TablePrinter::num(run_span->duration().sec(), 3),
         TablePrinter::num(attr[obs::Bucket::kQueueWait], 3),
         TablePrinter::num(attr[obs::Bucket::kCompute], 3),
         TablePrinter::num(attr[obs::Bucket::kDramService], 3),
         TablePrinter::num(attr[obs::Bucket::kNvmService], 3),
         TablePrinter::num(attr[obs::Bucket::kMigrationStall], 3),
         TablePrinter::num(attr[obs::Bucket::kOther], 3)});
  }
  atable.print(std::cout);
  return 0;
}
