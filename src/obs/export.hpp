// Exporters for the observability plane.
//
// Three output shapes:
//  - Chrome/Perfetto trace-event JSON ("X" complete events on one lane per
//    driver/executor track, "i" instants, "M" metadata) — load the file in
//    ui.perfetto.dev or chrome://tracing. A sweep variant merges several
//    runs into one trace, one process id per run.
//  - metrics JSONL: one registry cell per line (counters carry value;
//    histograms carry count/sum/min/max/p50/p95/p99).
//  - human tables: per-stage attribution breakdown and top-N hottest
//    spans, for the trace_explorer CLI and EXPERIMENTS.md.
//
// Everything here is a pure function of a finalized Recorder, emitting
// byte-stable output (fixed field order, %.17g numbers), so the exports
// inherit the simulator's bit-identity guarantees.
#pragma once

#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace tsx::obs {

/// One run inside a merged sweep export.
struct SweepRun {
  std::string label;  ///< process name in the trace ("dram-only", ...)
  const Recorder* recorder = nullptr;
};

/// Trace-event JSON for one run (pid 1). Invisible (filtered) spans are
/// skipped; everything else becomes an "X" complete event with its
/// attribution rendered into args.
std::string chrome_trace_json(const Recorder& recorder,
                              const std::string& process_name = "tsx");

/// Merged export: one synthetic sweep, each run its own pid (1-based, in
/// input order) so Perfetto shows them as separate processes.
std::string chrome_trace_json(const std::vector<SweepRun>& runs);

/// One JSON object per line for every registry cell, in canonical order.
std::string metrics_jsonl(const MetricsRegistry& metrics);

/// Per-stage attribution table: duration plus all nine buckets, one row
/// per stage span in open order, with a job/run-level footer.
std::string stage_attribution_table(const Recorder& recorder);

/// The `n` longest closed spans (run/sweep excluded — they trivially
/// dominate), rank/kind/name/start/duration/top-bucket columns.
std::string hottest_spans_table(const Recorder& recorder, std::size_t n);

/// Structural validation of a trace-event JSON string (used by the CI
/// gate and `trace_explorer --validate`): parses the document and checks
/// the trace-event schema — traceEvents array, required fields per event,
/// known phases, non-negative ts/dur, and that every "X" event carrying
/// an attribution args object sums to its duration within rounding.
struct TraceValidation {
  bool ok = true;
  std::size_t events = 0;
  std::vector<std::string> errors;
};
TraceValidation validate_chrome_trace(const std::string& json);

}  // namespace tsx::obs
