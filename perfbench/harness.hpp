// Building blocks of the host-time benchmark (see NOTES.md): order
// statistics, the metric-name grammar, the speed-independent seed schedule,
// the three workload definitions, a run wrapper that never throws, byte
// identity checks, the benchmark's own span log and the reference kernel
// that measures the host's speed.
//
// Everything here talks to the simulator only through its stable surfaces:
// workloads::run_workload / RunConfig / public RunResult fields,
// runner::SweepSpec, runner::to_json / result_from_json and the obs export
// and validate functions.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/runner.hpp"

namespace perfbench {

using tsx::workloads::RunConfig;
using tsx::workloads::RunResult;

// --- order statistics ------------------------------------------------------

/// Nearest-rank position (1-based) of quantile `q` in `n` sorted samples:
/// ceil(q * n), clamped to [1, n]. `n` must be > 0.
std::size_t rank_of(std::size_t n, double q);

/// Samples strictly above the nearest-rank quantile: n - rank_of(n, q).
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank quantile of `samples` (copied and sorted). Non-empty input.
double percentile(std::vector<double> samples, double q);

/// The tail quantile reported beside the median: the highest that keeps at
/// least ten samples beyond it once a run makes 500 calls or more.
inline constexpr double kTailQuantile = 0.98;
inline constexpr std::size_t kMinTailCalls = 500;

// --- names -----------------------------------------------------------------

/// Metric and workload names: 1..64 characters from [A-Za-z0-9_.-], starting
/// with a letter or digit.
bool valid_name(std::string_view name);

// --- seed schedule ---------------------------------------------------------

/// Seed of dataset `slot` in timed pass `pass` of a run started with
/// `base`. A pure function: the (config, seed) pairs a run executes never
/// depend on how fast it runs, and no two passes share a seed.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t pass,
                          std::uint64_t slot);

/// Seed of the untimed warm-up runs; drawn from a separate stream, so it is
/// never one of the timed schedule's seeds.
std::uint64_t warmup_seed(std::uint64_t base, std::uint64_t slot);

/// Passes a run makes: round(seconds / nominal_pass_s), at least
/// `min_passes`. The nominal pass length is a constant of the workload, so
/// the count depends on the requested seconds only.
int passes_for(double seconds, double nominal_pass_s, int min_passes);

// --- workloads -------------------------------------------------------------

/// One entry of a workload's pass: the config (seed filled in per pass) and
/// the dataset slot whose seed it uses (configs sharing a slot share input).
struct Job {
  RunConfig config;
  std::uint64_t slot = 0;
};

struct Workload {
  std::string name;
  /// TSX_TASK_THREADS for the timed passes.
  int task_threads = 1;
  /// Host seconds one pass takes on the reference 4-core host; sets the
  /// pass count for a requested run length (see passes_for).
  double nominal_pass_s = 1.0;
  /// Enough passes for >= kMinTailCalls timed calls, so the tail quantile
  /// has 10 samples beyond it.
  int min_passes = 1;
  /// Each call also exports the obs trace + metrics, validates the trace
  /// and round-trips the result through JSON (traced_drills).
  bool export_each_run = false;
  /// Share of calls expected to fail from the known defect (see
  /// is_known_defect), measured over the workload's own seed schedule.
  double expected_failure_share = 0.0;
  std::vector<Job> pass;
  /// One untimed warm-up call per config here (seeds from warmup_seed): one
  /// per app, at a scale the timed passes use, so lazy set-up and allocator
  /// growth happen before timing.
  std::vector<RunConfig> warmup;
};

std::vector<std::string> workload_names();

/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name);

/// The configs of pass `pass`, seeds assigned from `base`.
std::vector<RunConfig> pass_configs(const Workload& workload,
                                    std::uint64_t base, std::uint64_t pass);

// --- runs and checks -------------------------------------------------------

/// run_workload that never throws: an invalid config or a run that dies
/// comes back as a failed result (`failed == true`, `error` set).
RunResult call_run(const RunConfig& config);

/// The run completed and passed the app's self-check.
bool run_ok(const RunResult& result);

/// The one known program defect the benchmark counts rather than hides:
/// rf's self-check (accuracy above its bar) fails on some seeds at small
/// (about 1 in 6) and tiny (about 1 in 150) scale. A crash, or a
/// self-check failure at large scale (none in 328 seeds), is not it.
bool is_known_defect(const RunResult& result);

/// How far the known-defect share of a run may exceed the workload's
/// expected share before the run counts as incorrect. With fig2_sweep's
/// eight passes at 50 s it tolerates up to six failing rf datasets of the
/// sixteen (at most four was seen over seeds 0-400) and refuses seven or
/// more.
inline constexpr double kDefectShareSlack = 5.0;

/// `defects` known-defect calls out of `attempted` stay within
/// kDefectShareSlack times `expected_share`.
bool defect_share_plausible(std::size_t defects, std::size_t attempted,
                            double expected_share);

/// FNV-1a 64 over bytes, chainable through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Offset of the first differing byte, or npos when identical.
std::size_t first_difference(std::string_view a, std::string_view b);

/// to_json of `result` with the obs section of its config reset, so an
/// obs-on run and its obs-off twin serialize alike when the model agrees.
std::string normalized_json(const RunResult& result);

/// Simulated seconds of the run spans ("cat":"spark.run") in a Chrome trace
/// export, and of their "other" attribution bucket (time no phase claims).
/// The export writes "dur" in microseconds and attribution in seconds.
struct RunAttribution {
  double duration_s = 0.0;
  double other_s = 0.0;
};
RunAttribution run_attribution(std::string_view chrome_trace);

/// Complete ("X") events in a Chrome trace export.
std::size_t complete_events(std::string_view chrome_trace);

// --- the benchmark's own spans --------------------------------------------

/// Spans recorded from the benchmark's own files around each call into a
/// layer. Kept in memory, written out when the run ends. Disabled logs
/// record nothing (begin returns 0 and end ignores it).
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::string arg;
    std::size_t parent = 0;  ///< 1-based index of the enclosing span, 0 = root
    Clock::time_point start;
    Clock::time_point end;
    double seconds() const;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open span; returns its id (>= 1).
  std::size_t begin(std::string name, std::string arg = "");
  void end(std::size_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part its direct children cover.
  double self_seconds(std::size_t id) const;

  /// Chrome trace-event JSON of every closed span (one "X" event each).
  std::string chrome_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string arg = "")
      : log_(log), id_(log.begin(std::move(name), std::move(arg))) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::size_t id_;
};

// --- host speed ------------------------------------------------------------

/// A fixed kernel that runs no simulator code, timed between calls to
/// measure how fast the host runs at that moment. It sorts 16384
/// pseudo-random keys, clears a 16 MiB open-addressing table and inserts and
/// probes the keys in it: branchy integer work plus cache misses and memory
/// traffic, as in the simulator's own datagen, shuffles and ML kernels. Its
/// storage is allocated once, so the program's heap cannot move its time.
class ReferenceKernel {
 public:
  ReferenceKernel();
  /// Runs the kernel once; returns its host seconds.
  double run();
  /// Checksum of the last run; the same on every run.
  std::uint64_t checksum() const { return checksum_; }
  /// Bytes of storage the kernel keeps resident.
  std::size_t bytes() const;

 private:
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> table_;
  std::uint64_t checksum_ = 0;
};

/// Median seconds of one ReferenceKernel::run on the reference host (see
/// NOTES.md). It only scales normalized figures to that host's units.
inline constexpr double kNominalReferenceSeconds = 3.3e-3;

/// How much faster than nominal the host ran: kNominalReferenceSeconds over
/// the median of `samples` (ReferenceKernel::run times). Non-empty input.
double host_speed(std::vector<double> samples);

/// Reference samples on each side of a call that set its host speed: 31 in
/// all, about two seconds of calls on either gated workload.
inline constexpr std::size_t kSpeedHalfWindow = 15;

/// Call seconds at the reference host's nominal speed: each of `seconds`
/// times the host speed over the reference samples around it (`reference[i]`
/// ran right after call i), kSpeedHalfWindow on each side, fewer at the
/// ends. Both inputs have the same, non-zero length.
std::vector<double> normalized_seconds(const std::vector<double>& seconds,
                                       const std::vector<double>& reference);

// --- provenance ------------------------------------------------------------

struct BuildInfo {
  std::string build_type;
  std::string compiler;
  bool optimized = false;
};
BuildInfo build_info();

}  // namespace perfbench
