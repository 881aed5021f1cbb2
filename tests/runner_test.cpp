// Tests for the tsx::runner experiment API: sweep enumeration, the
// work-stealing pool, parallel-vs-serial bit-identical results, result
// serialization and the RunConfig identity (canonical_key).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "fault/scenario.hpp"
#include "obs/export.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/serialize.hpp"
#include "tiering/options.hpp"

namespace tsx::runner {
namespace {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

// The 2-app x 2-tier tiny grid the determinism tests run on: small enough
// for seconds-long tests, big enough to exercise fan-out.
SweepSpec tiny_grid() {
  return SweepSpec()
      .apps({App::kSort, App::kBayes})
      .scales({ScaleId::kTiny})
      .tiers({mem::TierId::kTier0, mem::TierId::kTier2});
}

// --- SweepSpec ------------------------------------------------------------

TEST(SweepSpec, DefaultSpecIsTheDefaultRunConfig) {
  const auto configs = SweepSpec().enumerate();
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0], RunConfig{});
}

TEST(SweepSpec, SizeMatchesCrossProduct) {
  const SweepSpec spec = SweepSpec()
                             .all_apps()
                             .all_scales()
                             .all_tiers()
                             .mba_levels({50, 100})
                             .repeats(3);
  EXPECT_EQ(spec.size(), 7u * 3u * 4u * 2u * 3u);
  EXPECT_EQ(spec.enumerate().size(), spec.size());
}

TEST(SweepSpec, EnumerationOrderIsDocumented) {
  // app -> scale -> tier ... -> repeat, each axis in the order given.
  const auto configs = tiny_grid().repeats(2).enumerate();
  ASSERT_EQ(configs.size(), 8u);
  EXPECT_EQ(configs[0].app, App::kSort);
  EXPECT_EQ(configs[0].tier, mem::TierId::kTier0);
  EXPECT_EQ(configs[2].app, App::kSort);
  EXPECT_EQ(configs[2].tier, mem::TierId::kTier2);
  EXPECT_EQ(configs[4].app, App::kBayes);
  // Repeat seeds use the golden-ratio stride.
  EXPECT_EQ(configs[0].seed, 42u);
  EXPECT_EQ(configs[1].seed, 42u + 0x9e3779b9ULL);
}

TEST(SweepSpec, RejectsEmptyAxes) {
  EXPECT_THROW(SweepSpec().apps({}), tsx::Error);
  EXPECT_THROW(SweepSpec().tiers({}), tsx::Error);
  EXPECT_THROW(SweepSpec().repeats(0), tsx::Error);
}

TEST(SweepSpec, FaultKnobAppliesToEveryConfig) {
  fault::FaultConfig f;
  f.enabled = true;
  f.executor_crashes = 2;
  f.salt = 99;
  const auto configs = tiny_grid().fault(f).enumerate();
  ASSERT_EQ(configs.size(), 4u);
  for (const auto& cfg : configs) EXPECT_EQ(cfg.fault, f);
  // And the default keeps faults off.
  for (const auto& cfg : tiny_grid().enumerate())
    EXPECT_FALSE(cfg.fault.enabled);
}

// --- config identity --------------------------------------------------------
//
// canonical_key is a config's identity: the dataset memo keys on it (through
// dataset_group_key), so equal configs must map to one key and any knob that
// differs must move it.

TEST(ConfigIdentity, EqualConfigsKeyEqual) {
  RunConfig a;
  a.app = App::kLda;
  a.tier = mem::TierId::kTier2;
  RunConfig b = a;
  EXPECT_EQ(workloads::canonical_key(a), workloads::canonical_key(b));
}

TEST(ConfigIdentity, DifferentConfigsKeyDifferent) {
  RunConfig a;
  RunConfig b;
  b.mba_percent = 50;
  EXPECT_NE(workloads::canonical_key(a), workloads::canonical_key(b));
}

TEST(ConfigIdentity, TieringFieldsEnterTheKey) {
  // Every tiering knob is part of a run's identity: two runs differing only
  // in a tiering knob must not share a key.
  const RunConfig base;
  const auto differs = [&](auto mutate) {
    RunConfig cfg;
    mutate(cfg.tiering);
    return workloads::canonical_key(cfg) != workloads::canonical_key(base);
  };
  using tiering::PolicyKind;
  EXPECT_TRUE(differs(
      [](auto& t) { t.policy = PolicyKind::kLfuPromote; }));
  EXPECT_TRUE(differs([](auto& t) { t.epoch_ms = 25.0; }));
  EXPECT_TRUE(differs([](auto& t) { t.fast_capacity_gib = 4.0; }));
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.run_batch(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 10; ++batch)
    pool.run_batch(50, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.run_batch(8,
                              [&](std::size_t i) {
                                ++executed;
                                if (i == 5) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  // The batch drains despite the throw: every index still runs.
  EXPECT_EQ(executed.load(), 8);
  // The pool survives a throwing batch.
  std::atomic<int> ran{0};
  pool.run_batch(4, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, EveryIndexRunsWhenEveryIndexThrows) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  int caught = 0;
  try {
    pool.run_batch(8, [&](std::size_t) {
      ++executed;
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
    ++caught;
  }
  // A failure never skips the rest of the batch, and exactly one of the
  // eight exceptions reaches the caller.
  EXPECT_EQ(executed.load(), 8);
  EXPECT_EQ(caught, 1);
}

// --- ParallelRunner determinism -------------------------------------------

TEST(ParallelRunner, ParallelMatchesSerialBitForBit) {
  const auto configs = tiny_grid().enumerate();

  std::vector<RunResult> serial;
  for (const RunConfig& cfg : configs)
    serial.push_back(workloads::run_workload(cfg));

  RunnerOptions options;
  options.threads = 4;
  const auto parallel = ParallelRunner(options).run(configs);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(results_identical(parallel[i], serial[i])) << "run " << i;
}

TEST(ParallelRunner, ProgressReachesTotal) {
  std::size_t last_completed = 0;
  std::size_t calls = 0;
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](const Progress& p) {
    last_completed = p.completed;
    EXPECT_EQ(p.total, 4u);
    ++calls;
  };
  const auto results = ParallelRunner(options).run(tiny_grid());
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(last_completed, 4u);
  EXPECT_EQ(calls, 4u);
}

TEST(ParallelRunner, IsolatesAThrowingRun) {
  // One config is poisoned: an enabled fault plane whose stragglers would
  // run faster than healthy tasks fails validation inside run_workload.
  // The batch must survive — the bad run becomes a failed RunResult, the
  // healthy runs are untouched, and the failure is visible in the progress
  // feed.
  auto configs = tiny_grid().enumerate();
  const std::size_t bad = 1;
  configs[bad].fault.enabled = true;
  configs[bad].fault.executor_crashes = 1;
  configs[bad].fault.straggler_factor = 0.5;

  std::size_t last_failures = 0;
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](const Progress& p) { last_failures = p.failures; };
  const auto results = ParallelRunner(options).run(configs);

  ASSERT_EQ(results.size(), configs.size());
  EXPECT_TRUE(results[bad].failed);
  EXPECT_FALSE(results[bad].valid);
  EXPECT_FALSE(results[bad].error.empty());
  EXPECT_EQ(results[bad].config, configs[bad]);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == bad) continue;
    EXPECT_FALSE(results[i].failed) << "run " << i;
    EXPECT_TRUE(results[i].valid) << "run " << i;
  }
  EXPECT_EQ(last_failures, 1u);
}

// --- serialization --------------------------------------------------------

TEST(Serialize, JsonRoundTripIsLossless) {
  RunConfig cfg;
  cfg.app = App::kLda;
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::TierId::kTier2;
  cfg.shuffle_tier = mem::TierId::kTier0;
  cfg.background_load_gbps = 1.25;
  const RunResult original = workloads::run_workload(cfg);

  RunResult decoded;
  ASSERT_TRUE(result_from_json(to_json(original), &decoded));
  EXPECT_TRUE(results_identical(original, decoded));
  EXPECT_EQ(decoded.config, original.config);
  EXPECT_EQ(decoded.exec_time.v, original.exec_time.v);
}

TEST(Serialize, RejectsMalformedJson) {
  RunResult out;
  EXPECT_FALSE(result_from_json("", &out));
  EXPECT_FALSE(result_from_json("{\"config\":", &out));
  EXPECT_FALSE(result_from_json("[1,2,3]", &out));
}

/// `json` with the token of its first `"name":` member replaced by `token`.
std::string with_token(std::string json, const std::string& name,
                       const std::string& token) {
  const std::string member = "\"" + name + "\":";
  const std::size_t at = json.find(member);
  EXPECT_NE(at, std::string::npos) << name;
  const std::size_t from = at + member.size();
  const std::size_t to = json.find_first_of(",}", from);
  return json.replace(from, to - from, token);
}

TEST(Serialize, RejectsDamagedScalarsNamingTheField) {
  RunConfig cfg;
  cfg.app = App::kSort;
  cfg.scale = ScaleId::kTiny;
  const std::string json = to_json(workloads::run_workload(cfg));
  RunResult out;
  std::string error;
  ASSERT_TRUE(result_from_json(json, &out, &error)) << error;

  const struct {
    const char* field;
    const char* token;
  } damaged[] = {
      {"tasks", "12abc"},                   // u64 with stray text
      {"executors", "12abc"},               // int with stray text
      {"seed", ""},                         // empty token
      {"executors", "2147483648"},          // int overflow
      {"mba_percent", "-2147483649"},       // int underflow
      {"seed", "-1"},                       // negative u64
      {"seed", "18446744073709551616"},     // u64 overflow
      {"background_load_gbps", "1e999"},    // double overflow
      {"exec_time", "infinity"},            // not the writer's spelling
      {"exec_time", "1.5x"},                // double with stray text
      {"valid", "maybe"},                   // not a boolean
      {"fault_enabled", "2"},               // not a config boolean
      {"app", "9"},                         // enum index out of range
      {"scale", "7"},
      {"machine", "4"},
      {"tiering_policy", "2"},              // the retired bandwidth-aware
      {"dfs_codec", "5"},
      {"kind", "3"},                        // energy[0].kind
      {"shuffle_tier", "7"},                // each tier names its field
      {"cache_tier", "-1"},
  };
  for (const auto& d : damaged) {
    error.clear();
    EXPECT_FALSE(result_from_json(with_token(json, d.field, d.token), &out,
                                  &error))
        << d.field << "=" << d.token;
    const std::string named = *d.token == '\0'
                                  ? std::string(d.field) + " has no value"
                                  : std::string(d.field) + "=\"" + d.token +
                                        "\"";
    EXPECT_NE(error.find(named), std::string::npos)
        << d.field << "=" << d.token << ": " << error;
  }

  // A line written before the vectorized engine left the schema carries
  // members that no field table names: its four config knobs, and its
  // result object. So does a line written before the v8 knob audit: its
  // tiering sampler and aging knobs. The reader rejects each, naming the
  // first leftover.
  const struct {
    const char* before;  ///< the member the stale bytes preceded
    const char* stale;   ///< the earlier writer's bytes, verbatim
    const char* named;
  } stale[] = {
      {"\"obs_enabled\":",
       "\"columnar_enabled\":0,\"columnar_batch_rows\":4096,"
       "\"columnar_arena_chunk_kib\":256,\"columnar_dict_capacity\":65536,",
       "columnar_enabled is not a field"},
      {"\"dfs\":",
       "\"columnar\":{\"kernels\":[{\"kind\":\"scan\","
       "\"stream\":\"heap\",\"invocations\":0,\"rows_in\":0,"
       "\"rows_out\":0,\"bytes_read\":0,\"bytes_written\":0},"
       "{\"kind\":\"filter\",\"stream\":\"heap\",\"invocations\":0,"
       "\"rows_in\":0,\"rows_out\":0,\"bytes_read\":0,"
       "\"bytes_written\":0},{\"kind\":\"project\","
       "\"stream\":\"heap\",\"invocations\":0,\"rows_in\":0,"
       "\"rows_out\":0,\"bytes_read\":0,\"bytes_written\":0},"
       "{\"kind\":\"sort\",\"stream\":\"shuffle\",\"invocations\":0,"
       "\"rows_in\":0,\"rows_out\":0,\"bytes_read\":0,"
       "\"bytes_written\":0},{\"kind\":\"partition\","
       "\"stream\":\"shuffle\",\"invocations\":0,\"rows_in\":0,"
       "\"rows_out\":0,\"bytes_read\":0,\"bytes_written\":0},"
       "{\"kind\":\"aggregate\",\"stream\":\"shuffle\","
       "\"invocations\":0,\"rows_in\":0,\"rows_out\":0,"
       "\"bytes_read\":0,\"bytes_written\":0},{\"kind\":\"join\","
       "\"stream\":\"shuffle\",\"invocations\":0,\"rows_in\":0,"
       "\"rows_out\":0,\"bytes_read\":0,\"bytes_written\":0},"
       "{\"kind\":\"cache-read\",\"stream\":\"cache\","
       "\"invocations\":0,\"rows_in\":0,\"rows_out\":0,"
       "\"bytes_read\":0,\"bytes_written\":0},{\"kind\":\"sink\","
       "\"stream\":\"heap\",\"invocations\":0,\"rows_in\":0,"
       "\"rows_out\":0,\"bytes_read\":0,\"bytes_written\":0}],"
       "\"queries\":0,\"stages_planned\":0,\"batches\":0,"
       "\"regions\":0,\"region_bytes\":0,\"arena_leases\":0,"
       "\"arena_high_water\":0},",
       "columnar is not a field"},
      {"\"tiering_fast_gib\":",
       "\"tiering_decay\":0.5,\"tiering_sample\":0,"
       "\"tiering_sample_period\":16,\"tiering_hint_fault_us\":1.2,",
       "tiering_decay is not a field"},
  };
  for (const auto& s : stale) {
    std::string line = json;
    line.insert(line.find(s.before), s.stale);
    error.clear();
    EXPECT_FALSE(result_from_json(line, &out, &error)) << s.named;
    EXPECT_NE(error.find(s.named), std::string::npos) << error;
  }
}

TEST(Serialize, RejectsAConfigThatValidateRejects) {
  // The JSON codec reads `inf`, but no run accepts an infinite background
  // load: a result line carrying one (hand-edited, or written before the
  // rule) must not load as that config's result.
  RunResult r;
  const std::string json =
      with_token(to_json(r), "background_load_gbps", "inf");
  RunResult out;
  std::string error;
  EXPECT_FALSE(result_from_json(json, &out, &error));
  EXPECT_NE(error.find("background_load_gbps"), std::string::npos) << error;
}

TEST(Serialize, NonFiniteTokensRoundTripExactly) {
  RunResult r;
  r.exec_time = Duration::seconds(1.5);
  for (const char* token : {"inf", "-inf", "nan", "-nan"}) {
    const std::string json = with_token(to_json(r), "exec_time", token);
    RunResult back;
    std::string error;
    ASSERT_TRUE(result_from_json(json, &back, &error)) << token << error;
    EXPECT_EQ(to_json(back), json) << token;
  }
}

TEST(Serialize, EveryFig2ConfigRoundTripsToTheSameKey) {
  const auto configs =
      SweepSpec().all_apps().all_scales().all_tiers().seed(42).enumerate();
  ASSERT_EQ(configs.size(), 84u);
  for (const RunConfig& cfg : configs) {
    RunResult r;
    r.config = cfg;
    RunResult back;
    std::string error;
    ASSERT_TRUE(result_from_json(to_json(r), &back, &error)) << error;
    EXPECT_EQ(workloads::canonical_key(back.config),
              workloads::canonical_key(cfg))
        << cfg.describe();
    EXPECT_EQ(to_json(back), to_json(r)) << cfg.describe();
  }
}

// --- byte-mutation fuzz of the JSON loader ---------------------------------

/// One random damage to `text`: a bit flip, a random byte, a short
/// deletion or a truncation.
std::string mutate(std::string text, std::mt19937_64& rng) {
  if (text.empty()) return text;
  const std::size_t at = rng() % text.size();
  switch (rng() % 4) {
    case 0: text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8))); break;
    case 1: text[at] = static_cast<char>(rng() & 0xff); break;
    case 2: text.erase(at, 1 + rng() % 8); break;
    default: text.resize(at);
  }
  return text;
}

/// Three results that between them carry every section: a clean run, a
/// faulted run, and a synthetic one with non-finite doubles and strings
/// that need escaping.
std::vector<RunResult> fuzz_seeds() {
  RunConfig clean;
  RunConfig faulted;
  faulted.executors = 2;
  faulted.cores_per_executor = 20;
  faulted.fault = fault::scenario("crash");
  RunResult synthetic;
  synthetic.config.app = App::kLda;
  synthetic.config.scale = ScaleId::kLarge;
  synthetic.config.seed = 7;
  synthetic.config.cache_tier = mem::TierId::kTier3;
  synthetic.config.obs.trace_filter = "spark.stage";
  synthetic.exec_time = Duration::seconds(2.5);
  synthetic.wear.projected_lifetime =
      Duration::seconds(std::numeric_limits<double>::infinity());
  synthetic.events.values[0] = std::numeric_limits<double>::quiet_NaN();
  synthetic.validation = "tab\there \"quoted\" back\\slash";
  synthetic.failed = true;
  synthetic.error = "line\nbreak";
  return {workloads::run_workload(clean), workloads::run_workload(faulted),
          synthetic};
}

/// Every enum a loaded result carries is one its codec can produce.
void expect_enums_in_range(const RunResult& r) {
  const RunConfig& c = r.config;
  EXPECT_LT(static_cast<std::size_t>(c.app), workloads::kAllApps.size());
  EXPECT_LT(static_cast<std::size_t>(c.scale), workloads::kAllScales.size());
  EXPECT_LT(static_cast<unsigned>(mem::index(c.tier)), 4u);
  for (const auto& t : {c.shuffle_tier, c.cache_tier})
    if (t) {
      EXPECT_LT(static_cast<unsigned>(mem::index(*t)), 4u);
    }
  EXPECT_LT(static_cast<unsigned>(c.machine), 2u);
  EXPECT_NO_THROW(
      tiering::policy_from_index(static_cast<int>(c.tiering.policy)));
  EXPECT_LT(static_cast<unsigned>(c.dfs.codec), 2u);
  for (const workloads::NodeEnergyRow& row : r.energy)
    EXPECT_LT(static_cast<unsigned>(row.kind), 2u);
}

TEST(SerializeFuzz, DamagedLinesAreRejectedOrReachAFixedPoint) {
  std::mt19937_64 rng(0x5eed);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (const RunResult& seed : fuzz_seeds()) {
    const std::string line = to_json(seed);
    for (int i = 0; i < 1000; ++i) {
      const std::string damaged = mutate(line, rng);
      RunResult r;
      std::string error;
      if (!result_from_json(damaged, &r, &error)) {
        EXPECT_FALSE(error.empty()) << damaged;
        ++rejected;
        continue;
      }
      ++accepted;
      expect_enums_in_range(r);
      const std::string once = to_json(r);
      RunResult back;
      ASSERT_TRUE(result_from_json(once, &back, &error)) << error;
      EXPECT_EQ(to_json(back), once) << damaged;
    }
  }
  // Both outcomes occur: most damage is caught, some lands in a value.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 0u);
}

TEST(SerializeFuzz, TraceValidatorSurvivesDamageAndRejectsBadTimes) {
  RunConfig cfg;
  cfg.obs.enabled = true;
  const RunResult result = workloads::run_workload(cfg);
  ASSERT_NE(result.trace, nullptr);
  const std::string trace = obs::chrome_trace_json(*result.trace);
  ASSERT_TRUE(obs::validate_chrome_trace(trace).ok);

  std::mt19937_64 rng(0x7ace);
  std::size_t rejected = 0;
  for (int i = 0; i < 500; ++i) {
    const obs::TraceValidation v =
        obs::validate_chrome_trace(mutate(trace, rng));
    if (!v.ok) {
      EXPECT_FALSE(v.errors.empty());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);

  for (const char* field : {"ts", "dur"}) {
    for (const char* token : {"inf", "-inf", "nan", "-1", "1e999", "\"5\""}) {
      const std::string damaged = with_token(trace, field, token);
      EXPECT_FALSE(obs::validate_chrome_trace(damaged).ok)
          << field << "=" << token;
    }
  }
}

}  // namespace
}  // namespace tsx::runner
