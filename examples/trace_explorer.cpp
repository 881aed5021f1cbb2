// Trace explorer: run a workload with the observability plane on and export
// everything it records.
//
// One command turns a RunConfig into artifacts a human (or CI) can consume:
//
//   - a Chrome/Perfetto trace-event JSON (`--out=trace.json`; load it at
//     ui.perfetto.dev or chrome://tracing) where each executor is a track,
//     tasks nest their kernel spans, and migrations/instants mark the
//     tiering and fault planes;
//   - a metrics JSONL dump (`--metrics=metrics.jsonl`), one cell per line
//     with counters and histogram quantiles;
//   - the per-stage tier-time attribution table and the top-N hottest
//     spans, printed to stdout — the terminal view of the same data.
//
// `--sweep` runs the app once per tier (DRAM / NVM) and merges both runs
// into one trace file on separate pid rows, which is how the DRAM-vs-NVM
// comparison of PAPER.md reads side by side. `--validate` re-parses the
// emitted trace through the JSON-schema-shaped validator and fails loudly
// on any malformed event — CI gates on that exit code.
//
// Usage:
//   trace_explorer [--app=pagerank] [--scale=tiny] [--tier=2]
//                  [--threads=N] [--filter=spark.*,tiering.*]
//                  [--out=trace.json] [--metrics=metrics.jsonl]
//                  [--top=10] [--sweep] [--validate]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "mem/tier.hpp"
#include "obs/export.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace tsx;
using workloads::RunConfig;
using workloads::RunResult;

struct Options {
  std::string app = "pagerank";
  std::string scale = "tiny";
  int tier = 0;
  int threads = 0;
  std::string filter;
  std::string out;
  std::string metrics;
  std::size_t top = 10;
  bool sweep = false;
  bool validate = false;
};

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (starts_with(arg, "--app=")) {
      opt->app = value("--app=");
    } else if (starts_with(arg, "--scale=")) {
      opt->scale = value("--scale=");
    } else if (starts_with(arg, "--tier=")) {
      opt->tier = parse_int(value("--tier="), "--tier", 0, 3);
    } else if (starts_with(arg, "--threads=")) {
      opt->threads = parse_int(value("--threads="), "--threads", 0, 1024);
    } else if (starts_with(arg, "--filter=")) {
      opt->filter = value("--filter=");
    } else if (starts_with(arg, "--out=")) {
      opt->out = value("--out=");
    } else if (starts_with(arg, "--metrics=")) {
      opt->metrics = value("--metrics=");
    } else if (starts_with(arg, "--top=")) {
      opt->top = static_cast<std::size_t>(
          parse_int(value("--top="), "--top", 0, 1000000));
    } else if (arg == "--sweep") {
      opt->sweep = true;
    } else if (arg == "--validate") {
      opt->validate = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return true;
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << bytes;
  return out.good();
}

RunResult run_one(const Options& opt, mem::TierId tier) {
  RunConfig cfg;
  cfg.app = workloads::app_from_name(opt.app);
  cfg.scale = workloads::scale_from_label(opt.scale);
  cfg.tier = tier;
  cfg.obs.enabled = true;
  cfg.obs.trace_filter = opt.filter;
  std::printf("running %s ...\n", cfg.describe().c_str());
  return workloads::run_workload(cfg);
}

void print_report(const RunResult& result, std::size_t top) {
  std::printf("\n== run: %s ==\n", result.config.describe().c_str());
  std::printf("exec_time: %.3fs  jobs: %zu  stages: %zu  tasks: %zu\n",
              result.exec_time.sec(), result.jobs, result.stages,
              result.tasks);
  std::printf("\n-- per-stage tier-time attribution (seconds) --\n%s",
              obs::stage_attribution_table(*result.trace).c_str());
  std::printf("\n-- top %zu hottest spans --\n%s", top,
              obs::hottest_spans_table(*result.trace, top).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  if (opt.threads > 0)
    setenv("TSX_TASK_THREADS", std::to_string(opt.threads).c_str(), 1);

  std::string trace_json;
  const obs::Recorder* metrics_source = nullptr;

  std::vector<RunResult> results;
  if (opt.sweep) {
    // One run per tier, side by side in one trace (pid = run row).
    results.push_back(run_one(opt, mem::TierId::kTier0));
    results.push_back(run_one(opt, mem::TierId::kTier2));
    const std::vector<obs::SweepRun> runs = {
        {"dram", results[0].trace.get()},
        {"nvm", results[1].trace.get()},
    };
    trace_json = obs::chrome_trace_json(runs);
  } else {
    results.push_back(run_one(opt, mem::tier_from_index(opt.tier)));
    trace_json = obs::chrome_trace_json(*results[0].trace);
  }
  metrics_source = results.back().trace.get();

  for (const RunResult& result : results) print_report(result, opt.top);

  if (!opt.out.empty()) {
    if (!write_file(opt.out, trace_json)) return 1;
    std::printf("\nwrote %s (%zu bytes) — load it at ui.perfetto.dev\n",
                opt.out.c_str(), trace_json.size());
  }
  if (!opt.metrics.empty()) {
    const std::string jsonl = obs::metrics_jsonl(metrics_source->metrics());
    if (!write_file(opt.metrics, jsonl)) return 1;
    std::printf("wrote %s (%zu bytes)\n", opt.metrics.c_str(),
                jsonl.size());
  }
  if (opt.validate) {
    const obs::TraceValidation v = obs::validate_chrome_trace(trace_json);
    if (!v.ok) {
      std::fprintf(stderr, "trace validation FAILED (%zu events):\n",
                   v.events);
      for (const std::string& e : v.errors)
        std::fprintf(stderr, "  %s\n", e.c_str());
      return 1;
    }
    std::printf("trace validation OK: %zu events\n", v.events);
  }
  return 0;
}
