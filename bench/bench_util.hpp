// Shared helpers for the experiment-reproduction benches.
//
// All sweeps go through tsx::runner (SweepSpec + ParallelRunner); this header
// only adds the bench conventions on top: the canonical Fig. 2 spec, runner
// options wired to the TSX_RUNNER_THREADS environment variable, and small
// formatting utilities.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "runner/parallel_runner.hpp"
#include "workloads/runner.hpp"

namespace tsx::bench {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

/// The paper's headline sweep: every app x scale x tier with the default
/// deployment (1 executor x 40 cores). ~84 configurations; behind Fig. 2 and
/// the takeaways.
inline runner::SweepSpec fig2_spec(std::uint64_t seed = 42) {
  return runner::SweepSpec().all_apps().all_scales().all_tiers().seed(seed);
}

/// Runner options every bench shares: TSX_RUNNER_THREADS=<n> pins the
/// worker count, n in [0, 1024] (default and 0: all cores; garbage throws).
inline runner::RunnerOptions bench_runner_options() {
  runner::RunnerOptions options;
  if (const auto threads = env_int("TSX_RUNNER_THREADS", 0, 1024))
    options.threads = *threads;
  return options;
}

inline std::string fmt_seconds(Duration d) {
  return strfmt("%.2f", d.sec());
}

inline void print_header(const char* id, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("tieredspark reproduction; simulated testbed per DESIGN.md §3\n");
  std::printf("==============================================================\n\n");
}

}  // namespace tsx::bench
