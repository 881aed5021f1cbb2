// Host-time benchmark driver (see NOTES.md).
//
//   perfbench_driver --workload <fig2_sweep|engine_large|traced_drills>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>] [--commit <id>]
//                    [--setup-only 1]
//
// One run: a timed set-up (schedule + warm-up), a fixed number of timed
// passes over the workload's config list, then the output checks outside
// the timed window. A fixed reference kernel runs after every timed call and
// gives the host's speed around it. With --trace 0 the last stdout line
// carries the end-to-end metrics, call timings normalized by that speed. With --trace 1 the passes alternate traced and
// untraced, pass 0 is re-run under each knob the ledger contrasts, the
// benchmark's own spans are written to <out-dir>, and the last line carries
// the per-layer ledger derived from them. --setup-only 1 stops after the
// set-up and prints its time; run.py starts such processes before and after
// the run and reports setup_s as the median over all of them.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "obs/export.hpp"
#include "runner/serialize.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".";
  std::string commit = "unknown";
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload W "
               "--seed N --seconds S --trace 0|1 [--out-dir D] [--commit C] "
               "[--setup-only 1]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') usage("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0 && a.seconds <= 3600.0))
        usage("bad --seconds " + val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace " + val);
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--setup-only") {
      if (val != "0" && val != "1") usage("bad --setup-only " + val);
      a.setup_only = val == "1";
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

void set_task_threads(int n) {
  setenv("TSX_TASK_THREADS", std::to_string(n).c_str(), 1);
}

/// Peak resident MiB of the process, less `excluded_bytes` the benchmark
/// itself keeps resident throughout.
double peak_rss_mib(std::size_t excluded_bytes) {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB.
  return (static_cast<double>(usage.ru_maxrss) * 1024.0 -
          static_cast<double>(excluded_bytes)) / (1024.0 * 1024.0);
}

// --- one call -----------------------------------------------------------------

/// What one call produced besides its timing.
struct Call {
  RunResult result;     ///< obs recorder dropped after export
  double unit_s = 0.0;  ///< the whole call: run, plus export and round trip
  std::string json;     ///< to_json bytes, when the call serialized
  std::size_t trace_bytes = 0;
  std::size_t trace_events = 0;
  RunAttribution attribution;
};

/// Every failed check, each with enough context to reproduce it.
struct Checks {
  std::vector<std::string> failures;
  void fail(const std::string& what) {
    if (failures.size() < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    failures.push_back(what);
  }
};

std::string label(const RunConfig& c) {
  return tsx::workloads::to_string(c.app) + "/" + tsx::workloads::to_string(c.scale) +
         "/tier" + std::to_string(static_cast<int>(c.tier)) + "/seed" +
         std::to_string(c.seed);
}

/// to_json, result_from_json, and a check that the parse re-serializes to
/// the same bytes.
void round_trip(Call& call, SpanLog& log, Checks& checks) {
  {
    ScopedSpan s(log, "runner.to_json");
    call.json = tsx::runner::to_json(call.result);
  }
  RunResult back;
  bool parsed = false;
  {
    ScopedSpan s(log, "runner.result_from_json");
    parsed = tsx::runner::result_from_json(call.json, &back);
  }
  if (!parsed || tsx::runner::to_json(back) != call.json)
    checks.fail("JSON round trip differs on " + label(call.result.config));
}

/// Exports the run's obs trace and metrics and validates the trace.
void export_obs(Call& call, SpanLog& log, Checks& checks) {
  const RunResult& r = call.result;
  if (r.trace == nullptr) {
    checks.fail("no obs recorder on " + label(r.config));
    return;
  }
  std::string trace;
  std::string metrics;
  tsx::obs::TraceValidation v;
  {
    ScopedSpan s(log, "obs.chrome_trace_json");
    trace = tsx::obs::chrome_trace_json(*r.trace);
  }
  {
    ScopedSpan s(log, "obs.metrics_jsonl");
    metrics = tsx::obs::metrics_jsonl(r.trace->metrics());
  }
  {
    ScopedSpan s(log, "obs.validate_chrome_trace");
    v = tsx::obs::validate_chrome_trace(trace);
  }
  if (!v.ok || metrics.empty())
    checks.fail("obs export invalid on " + label(r.config) +
                (v.errors.empty() ? "" : ": " + v.errors.front()));
  call.trace_bytes = trace.size();
  call.trace_events = complete_events(trace);
  call.attribution = run_attribution(trace);
}

/// One call: run_workload, plus (when `exported`) the obs export and the
/// JSON round trip, all inside the timed unit.
Call execute(const RunConfig& config, bool exported, SpanLog& log, Checks& checks) {
  Call call;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(log, "workloads.run_workload", tsx::workloads::to_string(config.app));
    call.result = call_run(config);
  }
  if (exported) {
    export_obs(call, log, checks);
    round_trip(call, log, checks);
  }
  call.unit_s = since(t0);
  call.result.trace.reset();
  return call;
}

// --- layer ledger ---------------------------------------------------------------

/// Result-derived sums over a set of calls.
struct Tally {
  double exec_s = 0, tasks = 0, stages = 0, jobs = 0, sim_s = 0;
  double nvm_read_b = 0, nvm_write_b = 0, promotions = 0, bytes_promoted = 0;
  double retries = 0, recomputed = 0, degraded_reads = 0;
  double trace_bytes = 0, trace_events = 0, run_sim_s = 0, other_sim_s = 0;

  void add(const Call& c) {
    const RunResult& r = c.result;
    exec_s += r.host_execute_seconds;
    tasks += static_cast<double>(r.tasks);
    stages += static_cast<double>(r.stages);
    jobs += static_cast<double>(r.jobs);
    sim_s += r.exec_time.sec();
    // ipmctl media counters count 256-byte media operations.
    nvm_read_b += 256.0 * static_cast<double>(r.nvdimm.media_reads);
    nvm_write_b += 256.0 * static_cast<double>(r.nvdimm.media_writes);
    promotions += static_cast<double>(r.tiering.promotions);
    bytes_promoted += r.tiering.bytes_promoted.b();
    retries += static_cast<double>(r.fault.retries);
    recomputed += static_cast<double>(r.fault.recomputed_map_tasks);
    degraded_reads += static_cast<double>(r.dfs.degraded_reads);
    trace_bytes += static_cast<double>(c.trace_bytes);
    trace_events += static_cast<double>(c.trace_events);
    run_sim_s += c.attribution.duration_s;
    other_sim_s += c.attribution.other_s;
  }
};

/// Total seconds of spans named `name` (with `arg`, when given) under the
/// top-level spans `phases`.
double span_total(const SpanLog& log, const std::vector<std::size_t>& phases,
                  const std::string& name, const std::string& arg = "") {
  const auto& spans = log.spans();
  double total = 0.0;
  for (const SpanLog::Span& s : spans) {
    if (s.name != name || (!arg.empty() && s.arg != arg)) continue;
    std::size_t top = s.parent;
    while (top != 0 && spans[top - 1].parent != 0) top = spans[top - 1].parent;
    for (const std::size_t p : phases)
      if (top == p) total += s.seconds();
  }
  return total;
}

enum class Compare { kExact, kObsNormalized };

/// Pass 0 re-run under one knob, outside the timed window: traced phases of
/// its own, and an identity check against the timed pass 0.
struct Twin {
  const char* name = "";
  int threads = 1;
  bool obs = false;
  Compare compare = Compare::kExact;
  std::vector<std::size_t> spans;  ///< one top-level span per call
  Tally tally;
};

/// Runs every twin on each pass-0 config in turn, so the twins of one
/// config run back to back and a drift in host speed hits them alike.
void run_twins(std::vector<Twin*> twins, const std::vector<Call>& first_pass,
               const std::vector<std::string>& first_json, SpanLog& log,
               Checks& checks) {
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    for (Twin* twin : twins) {
      RunConfig c = first_pass[i].result.config;
      c.obs.enabled = twin->obs;
      set_task_threads(twin->threads);
      twin->spans.push_back(log.begin(twin->name));
      const Call call = execute(c, twin->obs, log, checks);
      log.end(twin->spans.back());
      twin->tally.add(call);
      const std::size_t at =
          twin->compare == Compare::kExact
              ? first_difference(tsx::runner::to_json(call.result), first_json[i])
              : first_difference(normalized_json(call.result),
                                 normalized_json(first_pass[i].result));
      if (at != std::string::npos)
        checks.fail(std::string(twin->name) + " differs from pass 0 at byte " +
                    std::to_string(at) + " on " + label(c));
    }
  }
}

// --- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_name(m.name)) throw std::logic_error("bad metric name " + m.name);
    std::printf("metric %-28s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

/// Calls per host second over a set of passes: all their calls over their
/// summed duration.
double window_rate(std::size_t calls_per_pass, const std::vector<double>& passes) {
  double window = 0.0;
  for (const double s : passes) window += s;
  return static_cast<double>(calls_per_pass * passes.size()) / window;
}

void print_series(const char* name, const std::vector<double>& values) {
  std::printf("%s", name);
  for (const double v : values) std::printf(" %.4f", v);
  std::printf("\n");
}

int run(const Args& args) {
  const BuildInfo build = build_info();
  std::printf("provenance nproc=%u build_type=%s optimized=%d compiler=%s "
              "commit=%s\n",
              std::thread::hardware_concurrency(), build.build_type.c_str(),
              build.optimized ? 1 : 0, build.compiler.c_str(), args.commit.c_str());
  if (!build.optimized) {
    std::fprintf(stderr, "perfbench_driver: refusing an unoptimized build (%s)\n",
                 build.build_type.c_str());
    return 3;
  }
  // A result cache could skip a simulation. run.py starts the driver with
  // no TSX_ variable at all; the task-thread count is set per phase.
  unsetenv("TSX_RUN_CACHE");

  // Set-up, from process start: the workload, its full (config, seed)
  // schedule, and one untimed warm-up call per warm-up config.
  Checks checks;
  const Workload w = make_workload(args.workload);
  set_task_threads(w.task_threads);
  std::vector<std::vector<RunConfig>> schedule;
  const int passes = passes_for(args.seconds, w.nominal_pass_s, w.min_passes);
  for (int p = 0; p < passes; ++p)
    schedule.push_back(pass_configs(w, args.seed, static_cast<std::uint64_t>(p)));
  SpanLog quiet(false);
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    RunConfig c = w.warmup[i];
    c.seed = warmup_seed(args.seed, i);
    const RunResult r = execute(c, w.export_each_run, quiet, checks).result;
    if (!run_ok(r) && !is_known_defect(r)) checks.fail("warm-up run failed: " + label(c));
  }
  const double setup_s = since(g_process_start);
  if (args.setup_only) {
    std::printf("setup_s %.9f\n", setup_s);
    return checks.failures.empty() ? 0 : 1;
  }
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d passes=%zu "
              "calls_per_pass=%zu task_threads=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, schedule.size(), w.pass.size(),
              w.task_threads);

  // Timed passes. Under --trace 1 even passes are traced and odd ones are
  // not, so the tracing overhead is measured on the same mix.
  SpanLog log(false);
  ReferenceKernel kernel;
  kernel.run();  // first touch of its storage, outside the samples
  std::vector<double> unit_s;
  std::vector<double> reference_s;  // one kernel run after every call
  std::vector<double> pass_s[2];  // [traced], calls only
  std::size_t failed = 0;
  std::vector<std::string> defects;
  std::vector<Call> first_pass;
  std::vector<std::size_t> traced_passes;
  Tally traced;
  for (std::size_t p = 0; p < schedule.size(); ++p) {
    const bool tracing = args.trace && p % 2 == 0;
    log.set_enabled(tracing);
    const std::size_t pass_span = log.begin("pass", std::to_string(p));
    if (tracing) traced_passes.push_back(pass_span);
    const Clock::time_point t0 = Clock::now();
    double pass_reference_s = 0.0;
    for (const RunConfig& c : schedule[p]) {
      Call call = execute(c, w.export_each_run, log, checks);
      unit_s.push_back(call.unit_s);
      {
        ScopedSpan s(log, "bench.reference");
        reference_s.push_back(kernel.run());
      }
      pass_reference_s += reference_s.back();
      if (!run_ok(call.result)) {
        ++failed;
        if (is_known_defect(call.result)) {
          defects.push_back(label(c) + " " + call.result.validation);
        } else {
          checks.fail("run failed: " + label(c) + " " +
                      (call.result.failed ? call.result.error : call.result.validation));
        }
      }
      if (tracing) traced.add(call);
      if (p == 0) first_pass.push_back(std::move(call));
    }
    pass_s[tracing].push_back(since(t0) - pass_reference_s);
    log.end(pass_span);
  }
  log.set_enabled(args.trace);

  // Output checks, outside the timed window. Pass 0 is re-run:
  //  - at the other task-thread count; the bytes must match (engine_large
  //    always, every workload when tracing);
  //  - with obs toggled; it must match once the config is normalized
  //    (traced_drills always, every workload when tracing);
  //  - unchanged, as the ledger's baseline (when tracing).
  std::vector<std::string> first_json;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (Call& c : first_pass) {
    if (c.json.empty()) c.json = tsx::runner::to_json(c.result);
    first_json.push_back(c.json);
    digest = fnv1a(c.json, digest);
  }
  const bool obs_on = w.pass.front().config.obs.enabled;
  Twin base{"twin.base", w.task_threads, obs_on, Compare::kExact, {}, {}};
  Twin threads{"twin.threads", w.task_threads == 1 ? 2 : 1, obs_on, Compare::kExact, {}, {}};
  Twin obs{"twin.obs", w.task_threads, !obs_on, Compare::kObsNormalized, {}, {}};
  std::vector<Twin*> twins;
  if (args.trace) twins.push_back(&base);
  if (args.trace || w.task_threads != 1) twins.push_back(&threads);
  if (args.trace || obs_on) twins.push_back(&obs);
  run_twins(twins, first_pass, first_json, log, checks);
  set_task_threads(w.task_threads);

  // Serialization of pass 0 for workloads whose calls do not round-trip.
  std::size_t serialize_span = 0;
  if (args.trace && !w.export_each_run) {
    serialize_span = log.begin("serialize");
    for (Call& c : first_pass) round_trip(c, log, checks);
    log.end(serialize_span);
  }

  // Every timed call, for recomputing any statistic from the raw samples.
  {
    const std::string path = args.out_dir + "/calls-" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace) + ".tsv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      checks.fail("cannot write " + path);
    } else {
      std::fprintf(f, "pass\tslot\tconfig\tseconds\treference_s\n");
      for (std::size_t i = 0; i < unit_s.size(); ++i)
        std::fprintf(f, "%zu\t%zu\t%s\t%.9f\t%.9f\n", i / w.pass.size(), i % w.pass.size(),
                     label(schedule[i / w.pass.size()][i % w.pass.size()]).c_str(),
                     unit_s[i], reference_s[i]);
      std::fclose(f);
    }
  }
  // Host speed: the reference kernel's nominal time over its median time,
  // over the whole window here and around each call for the normalized
  // timings, which read as seconds on the reference host at its usual speed.
  const double speed = host_speed(reference_s);
  std::printf("host_speed %.4f reference_s.p50=%.6f nominal=%.6f samples=%zu "
              "checksum=%016llx\n",
              speed, kNominalReferenceSeconds / speed, kNominalReferenceSeconds,
              reference_s.size(), static_cast<unsigned long long>(kernel.checksum()));
  print_series("pass_s", pass_s[0]);
  if (args.trace) print_series("pass_s_traced", pass_s[1]);
  std::printf("sim_digest workload=%s seed=%llu fnv1a64=%016llx runs=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(digest), first_json.size());
  const std::size_t attempted = unit_s.size();
  for (const std::string& d : defects) std::printf("known_defect %s\n", d.c_str());
  std::printf("failures %zu/%zu share=%.4f expected_share=%.4f known_defect=%zu other=%zu\n",
              failed, attempted, static_cast<double>(failed) / static_cast<double>(attempted),
              w.expected_failure_share, defects.size(), failed - defects.size());
  if (!defect_share_plausible(defects.size(), attempted, w.expected_failure_share))
    checks.fail("known-defect share " + std::to_string(defects.size()) + "/" +
                std::to_string(attempted) + " is well above the expected " +
                std::to_string(w.expected_failure_share));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::string n = "samples=" + std::to_string(attempted);
    if (samples_beyond(attempted, kTailQuantile) < 10)
      checks.fail("too few calls for p98: " + std::to_string(attempted));
    std::printf("raw runs_per_s=%.6f run_s.p50=%.6f run_s.p98=%.6f (host seconds, "
                "not normalized)\n",
                window_rate(w.pass.size(), pass_s[0]), percentile(unit_s, 0.5),
                percentile(unit_s, kTailQuantile));
    const std::vector<double> norm_s = normalized_seconds(unit_s, reference_s);
    double norm_window = 0.0;
    for (const double s : norm_s) norm_window += s;
    metrics.push_back({"norm.runs_per_s", static_cast<double>(attempted) / norm_window,
                       "1/s",
                       "calls / normalized call seconds, passes=" +
                           std::to_string(pass_s[0].size())});
    metrics.push_back({"norm.run_s.p50", percentile(norm_s, 0.5), "s", n});
    metrics.push_back({"norm.run_s.p98", percentile(norm_s, kTailQuantile), "s",
                       n + " beyond=" + std::to_string(samples_beyond(attempted, kTailQuantile))});
    metrics.push_back({"setup_s", setup_s, "s", "process start to the first timed pass"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(kernel.bytes()), "MiB",
                       "less the reference kernel's storage"});
  } else {
    const double np = static_cast<double>(traced_passes.size());
    const auto per_pass = [&](const std::string& name, const std::string& arg = "") {
      return span_total(log, traced_passes, name, arg) / np;
    };
    for (const tsx::workloads::App a : tsx::workloads::kAllApps) {
      const std::string app = tsx::workloads::to_string(a);
      metrics.push_back({"workloads.host_s." + app,
                         per_pass("workloads.run_workload", app), "s", "per pass"});
    }
    // host_execute_seconds sums task host time over worker threads, so the
    // driver share is taken from a serial run: the timed passes when they
    // are serial, the serial twin otherwise.
    const Twin& serial = w.task_threads == 1 ? base : threads;
    const Twin& parallel = w.task_threads == 1 ? threads : base;
    const double serial_run = span_total(log, serial.spans, "workloads.run_workload");
    const double parallel_run = span_total(log, parallel.spans, "workloads.run_workload");
    const double driver_s =
        w.task_threads == 1 ? per_pass("workloads.run_workload") - traced.exec_s / np
                            : serial_run - serial.tally.exec_s;
    metrics.push_back({"spark.exec_s", traced.exec_s / np, "s",
                       "per pass, task seconds summed over threads"});
    metrics.push_back({"spark.driver_s", driver_s, "s", "per serial pass"});
    metrics.push_back({"spark.exec_us_per_task",
                       traced.tasks > 0 ? 1e6 * traced.exec_s / traced.tasks : 0.0, "us",
                       ""});
    metrics.push_back({"spark.plane_speedup", serial_run / parallel_run, "x",
                       "pass 0 run_workload, 1 thread / 2 threads"});
    metrics.push_back({"spark.tasks", traced.tasks / np, "count", "per pass"});
    metrics.push_back({"spark.stages", traced.stages / np, "count", "per pass"});
    metrics.push_back({"spark.jobs", traced.jobs / np, "count", "per pass"});
    metrics.push_back({"sim.exec_time_s", traced.sim_s / np, "s", "simulated, per pass"});
    metrics.push_back({"sim.sim_s_per_host_s",
                       traced.sim_s / span_total(log, traced_passes, "workloads.run_workload"),
                       "s/s", ""});
    metrics.push_back({"mem.nvm_media_read_bytes", traced.nvm_read_b / np, "B", "per pass"});
    metrics.push_back({"mem.nvm_media_write_bytes", traced.nvm_write_b / np, "B", "per pass"});
    metrics.push_back({"tiering.promotions", traced.promotions / np, "count", "per pass"});
    metrics.push_back({"tiering.bytes_promoted", traced.bytes_promoted / np, "B", "per pass"});
    metrics.push_back({"fault.retries", traced.retries / np, "count", "per pass"});
    metrics.push_back({"fault.recomputed_map_tasks", traced.recomputed / np, "count",
                       "per pass"});
    metrics.push_back({"dfs.degraded_reads", traced.degraded_reads / np, "count", "per pass"});

    // obs: from the traced passes where every call exports (traced_drills),
    // from the obs-on twin of pass 0 elsewhere.
    const double base_run = span_total(log, base.spans, "workloads.run_workload");
    const double obs_run = span_total(log, obs.spans, "workloads.run_workload");
    const std::vector<std::size_t>& obs_phases = w.export_each_run ? traced_passes : obs.spans;
    const Tally& o = w.export_each_run ? traced : obs.tally;
    const double obs_np = w.export_each_run ? np : 1.0;
    metrics.push_back({"obs.record_overhead_s", obs_on ? base_run - obs_run : obs_run - base_run,
                       "s", "pass 0 run_workload, obs on - obs off"});
    metrics.push_back({"obs.export_s",
                       (span_total(log, obs_phases, "obs.chrome_trace_json") +
                        span_total(log, obs_phases, "obs.metrics_jsonl")) / obs_np,
                       "s", "per pass"});
    metrics.push_back({"obs.validate_s",
                       span_total(log, obs_phases, "obs.validate_chrome_trace") / obs_np,
                       "s", "per pass"});
    metrics.push_back({"obs.spans", o.trace_events / obs_np, "count",
                       "complete trace events per pass"});
    metrics.push_back({"obs.trace_bytes", o.trace_bytes / obs_np, "B", "per pass"});
    metrics.push_back({"obs.other_share", o.run_sim_s > 0 ? o.other_sim_s / o.run_sim_s : 0.0,
                       "ratio", "simulated 'other' / run span duration"});

    const std::vector<std::size_t> ser_phases =
        w.export_each_run ? traced_passes : std::vector<std::size_t>{serialize_span};
    const double ser_np = w.export_each_run ? np : 1.0;
    double result_bytes = 0.0;
    for (const std::string& j : first_json) result_bytes += static_cast<double>(j.size());
    metrics.push_back({"runner.to_json_s", span_total(log, ser_phases, "runner.to_json") / ser_np,
                       "s", "per pass"});
    metrics.push_back({"runner.from_json_s",
                       span_total(log, ser_phases, "runner.result_from_json") / ser_np, "s",
                       "per pass"});
    metrics.push_back({"runner.result_bytes", result_bytes, "B", "pass 0"});

    double self = 0.0;
    for (const std::size_t id : traced_passes) self += log.self_seconds(id);
    const double untraced_rate =
        window_rate(w.pass.size(), pass_s[0].empty() ? pass_s[1] : pass_s[0]);
    const double traced_rate = window_rate(w.pass.size(), pass_s[1]);
    metrics.push_back({"bench.self_s", self / np, "s", "per traced pass"});
    metrics.push_back({"bench.host_speed", speed, "x",
                       "nominal / measured reference kernel time"});
    metrics.push_back({"bench.tracing_overhead", untraced_rate / traced_rate - 1.0, "ratio",
                       "untraced / traced runs_per_s - 1"});

    const std::string path = args.out_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    const std::string body = log.chrome_json();
    if (f == nullptr || std::fwrite(body.data(), 1, body.size(), f) != body.size()) {
      checks.fail("cannot write " + path);
    } else {
      std::printf("spans %zu written to %s\n", log.spans().size(), path.c_str());
    }
    if (f != nullptr) std::fclose(f);
  }
  print_result(checks.failures.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
