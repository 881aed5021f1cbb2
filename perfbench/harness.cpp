#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <utility>

#include "fault/scenario.hpp"
#include "runner/serialize.hpp"
#include "runner/sweep.hpp"
#include "tiering/options.hpp"

namespace perfbench {

using tsx::workloads::App;
using tsx::workloads::ScaleId;
using TierId = tsx::mem::TierId;

// --- order statistics ------------------------------------------------------

std::size_t rank_of(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(samples.size(), q) - 1];
}

// --- names -----------------------------------------------------------------

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// --- seed schedule ---------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kTimedStream = 0x7469'6d65'6400'0000ULL;   // "timed"
constexpr std::uint64_t kWarmupStream = 0x7761'726d'0000'0000ULL;  // "warm"

// Seeds stay below 2^53 so every tool that reads the JSON as doubles sees
// them exactly.
std::uint64_t draw(std::uint64_t stream, std::uint64_t base, std::uint64_t a,
                   std::uint64_t b) {
  const std::uint64_t x =
      splitmix64(splitmix64(splitmix64(stream ^ base) ^ a) ^ b);
  return x >> 11;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t pass,
                          std::uint64_t slot) {
  return draw(kTimedStream, base, pass, slot);
}

std::uint64_t warmup_seed(std::uint64_t base, std::uint64_t slot) {
  return draw(kWarmupStream, base, 0, slot);
}

int passes_for(double seconds, double nominal_pass_s, int min_passes) {
  const double want = std::round(seconds / nominal_pass_s);
  const int n = want >= 1e6 ? 1'000'000 : static_cast<int>(want);
  return std::max(n, min_passes);
}

// --- workloads -------------------------------------------------------------

namespace {

/// Jobs from a sweep, one dataset slot per (app, scale): configs that differ
/// only in tier read the same input, as in the paper's Fig. 2.
std::vector<Job> sweep_jobs(const tsx::runner::SweepSpec& spec) {
  std::vector<Job> jobs;
  std::map<std::pair<App, ScaleId>, std::uint64_t> slots;
  for (const RunConfig& config : spec.enumerate()) {
    const auto key = std::make_pair(config.app, config.scale);
    const auto it = slots.emplace(key, slots.size()).first;
    jobs.push_back({config, it->second});
  }
  return jobs;
}

RunConfig drill_config(App app) {
  RunConfig c;
  c.app = app;
  c.scale = ScaleId::kSmall;
  c.tier = TierId::kTier2;
  c.executors = 2;
  c.cores_per_executor = 20;
  c.dfs.codec = tsx::dfs::CodecKind::kRs;
  c.dfs.rs_k = 6;
  c.dfs.rs_m = 3;
  c.dfs.racks = 3;
  c.dfs.nodes_per_rack = 4;
  c.tiering.policy = tsx::tiering::policy_from_name("lfu-promote");
  c.obs.enabled = true;
  return c;
}

// The paper's Fig. 2 sweep, serially: the north-star end-to-end. ML kernels
// and datagen dominate its host time, and each dataset serves four tiers.
Workload fig2_sweep() {
  Workload w;
  w.name = "fig2_sweep";
  w.task_threads = 1;
  w.nominal_pass_s = 6.0;
  w.min_passes = 6;  // 504 calls
  // rf-small misses its accuracy bar on 480 and rf-tiny on 19 of 2880
  // scheduled seeds each (bases 41-400, passes 0-7), and the four tiers of
  // a dataset share its seed: (480 + 19) * 4 / (2880 * 84).
  w.expected_failure_share = 0.00825;
  w.pass = sweep_jobs(
      tsx::runner::SweepSpec().all_apps().all_scales().all_tiers());
  w.warmup = tsx::runner::SweepSpec().all_apps().scales({ScaleId::kSmall}).enumerate();
  return w;
}

// Large single runs with no ML kernel, on DRAM and NVM with two task
// threads: host time is the spark plane, the stores, the DES and the driver.
Workload engine_large() {
  const std::vector<App> apps{App::kSort, App::kRepartition, App::kPagerank};
  Workload w;
  w.name = "engine_large";
  w.task_threads = 2;
  w.nominal_pass_s = 0.2;
  w.min_passes = 84;  // 504 calls
  w.pass = sweep_jobs(tsx::runner::SweepSpec()
                          .apps(apps)
                          .scales({ScaleId::kLarge})
                          .tiers({TierId::kTier0, TierId::kTier2}));
  w.warmup = tsx::runner::SweepSpec().apps(apps).scales({ScaleId::kLarge}).enumerate();
  return w;
}

// Fault drills with obs on, lfu tiering and an RS(6,3) DFS, each call
// exported and JSON round-tripped: recovery re-runs stages, migration writes
// NVM, and obs recording, export and serialization are on the clock.
Workload traced_drills() {
  const std::vector<App> apps{App::kPagerank, App::kSort, App::kRepartition};
  Workload w;
  w.name = "traced_drills";
  w.task_threads = 1;
  w.nominal_pass_s = 0.72;
  w.min_passes = 42;  // 504 calls
  w.export_each_run = true;
  for (const App app : apps) {
    for (const char* scenario : {"crash", "uce", "chaos", "datanode-loss"}) {
      RunConfig c = drill_config(app);
      c.fault = tsx::fault::scenario(scenario);
      w.pass.push_back({c, w.pass.size()});  // every run its own input
    }
    w.warmup.push_back(w.pass[w.pass.size() - 4].config);  // the app's crash drill
  }
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"fig2_sweep", "engine_large", "traced_drills"};
}

Workload make_workload(const std::string& name) {
  if (name == "fig2_sweep") return fig2_sweep();
  if (name == "engine_large") return engine_large();
  if (name == "traced_drills") return traced_drills();
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<RunConfig> pass_configs(const Workload& workload,
                                    std::uint64_t base, std::uint64_t pass) {
  std::vector<RunConfig> out;
  out.reserve(workload.pass.size());
  for (const Job& job : workload.pass) {
    RunConfig c = job.config;
    c.seed = derive_seed(base, pass, job.slot);
    out.push_back(std::move(c));
  }
  return out;
}

// --- runs and checks -------------------------------------------------------

RunResult call_run(const RunConfig& config) {
  try {
    return tsx::workloads::run_workload(config);
  } catch (const std::exception& e) {
    return tsx::workloads::failed_result(config, e.what());
  }
}

bool run_ok(const RunResult& result) { return !result.failed && result.valid; }

bool is_known_defect(const RunResult& result) {
  return result.config.app == App::kRf && result.config.scale != ScaleId::kLarge &&
         !result.failed && !result.valid;
}

bool defect_share_plausible(std::size_t defects, std::size_t attempted,
                            double expected_share) {
  return static_cast<double>(defects) <=
         kDefectShareSlack * expected_share * static_cast<double>(attempted);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::size_t first_difference(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return i;
  return a.size() == b.size() ? std::string_view::npos : n;
}

std::string normalized_json(const RunResult& result) {
  RunResult copy = result;
  copy.config.obs = {};
  return tsx::runner::to_json(copy);
}

namespace {

/// The number following `"key":` at or after `from`, within [from, to).
bool number_after(std::string_view text, std::string_view key, std::size_t from,
                  std::size_t to, double* out) {
  const std::size_t at = text.substr(0, to).find(key, from);
  if (at == std::string_view::npos) return false;
  const std::string num(text.substr(at + key.size(), 32));
  char* end = nullptr;
  *out = std::strtod(num.c_str(), &end);
  return end != num.c_str();
}

}  // namespace

RunAttribution run_attribution(std::string_view chrome_trace) {
  RunAttribution out;
  static constexpr std::string_view kRunCat = "\"cat\":\"spark.run\"";
  std::size_t at = 0;
  while ((at = chrome_trace.find(kRunCat, at)) != std::string_view::npos) {
    const std::size_t begin = chrome_trace.rfind('{', at);
    std::size_t end = chrome_trace.find('\n', at);
    if (end == std::string_view::npos) end = chrome_trace.size();
    double v = 0.0;
    if (number_after(chrome_trace, "\"dur\":", at, end, &v))
      out.duration_s += v * 1e-6;
    if (number_after(chrome_trace, "\"other\":", begin, end, &v))
      out.other_s += v;
    at = end;
  }
  return out;
}

std::size_t complete_events(std::string_view chrome_trace) {
  static constexpr std::string_view kX = "\"ph\":\"X\"";
  std::size_t n = 0;
  for (std::size_t at = chrome_trace.find(kX); at != std::string_view::npos;
       at = chrome_trace.find(kX, at + kX.size()))
    ++n;
  return n;
}

// --- the benchmark's own spans --------------------------------------------

double SpanLog::Span::seconds() const {
  return std::chrono::duration<double>(end - start).count();
}

std::size_t SpanLog::begin(std::string name, std::string arg) {
  if (!enabled_) return 0;
  Span span;
  span.name = std::move(name);
  span.arg = std::move(arg);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size());
  return spans_.size();
}

void SpanLog::end(std::size_t id) {
  if (id == 0) return;
  spans_[id - 1].end = Clock::now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::self_seconds(std::size_t id) const {
  double self = spans_[id - 1].seconds();
  for (const Span& s : spans_)
    if (s.parent == id) self -= s.seconds();
  return self;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin).count();
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"perfbench\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%zu,\"arg\":\"%s\"}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), ts, s.seconds() * 1e6,
                  i + 1, s.parent, s.arg.c_str());
    out += buf;
  }
  return out + "\n]}\n";
}

// --- host speed ------------------------------------------------------------

namespace {
constexpr std::size_t kReferenceKeys = 16384;
constexpr std::size_t kReferenceSlots = std::size_t{1} << 22;  // 16 MiB of slots
}  // namespace

ReferenceKernel::ReferenceKernel()
    : keys_(kReferenceKeys), table_(kReferenceSlots) {}

double ReferenceKernel::run() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::uint32_t& k : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<std::uint32_t>(x >> 32) | 1u;  // 0 marks an empty slot
  }
  std::sort(keys_.begin(), keys_.end());
  std::fill(table_.begin(), table_.end(), 0u);
  const auto slot_of = [](std::uint32_t k) {
    return static_cast<std::size_t>(k * 0x9e3779b1u) & (kReferenceSlots - 1);
  };
  for (const std::uint32_t k : keys_) {
    std::size_t s = slot_of(k);
    while (table_[s] != 0 && table_[s] != k) s = (s + 1) & (kReferenceSlots - 1);
    table_[s] = k;
  }
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kReferenceKeys; ++i) {
    const std::uint32_t k = keys_[i] ^ static_cast<std::uint32_t>(i & 1);
    std::size_t s = slot_of(k);
    while (table_[s] != 0 && table_[s] != k) s = (s + 1) & (kReferenceSlots - 1);
    sum = sum * 31 + (table_[s] == k ? s : 0);
  }
  checksum_ = sum;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::size_t ReferenceKernel::bytes() const {
  return (keys_.size() + table_.size()) * sizeof(std::uint32_t);
}

double host_speed(std::vector<double> samples) {
  return kNominalReferenceSeconds / percentile(std::move(samples), 0.5);
}

std::vector<double> normalized_seconds(const std::vector<double>& seconds,
                                       const std::vector<double>& reference) {
  if (seconds.size() != reference.size() || seconds.empty())
    throw std::invalid_argument("normalized_seconds: mismatched samples");
  std::vector<double> out;
  out.reserve(seconds.size());
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    const std::size_t lo = i < kSpeedHalfWindow ? 0 : i - kSpeedHalfWindow;
    const std::size_t hi = std::min(reference.size(), i + kSpeedHalfWindow + 1);
    out.push_back(seconds[i] *
                  host_speed({reference.begin() + lo, reference.begin() + hi}));
  }
  return out;
}

// --- provenance ------------------------------------------------------------

BuildInfo build_info() {
  BuildInfo info;
  info.build_type = PERFBENCH_BUILD_TYPE;
  info.compiler = PERFBENCH_COMPILER;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  info.optimized = true;
#endif
  return info;
}

}  // namespace perfbench
