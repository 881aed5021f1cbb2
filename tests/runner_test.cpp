// Tests for the tsx::runner experiment API: sweep enumeration, the
// work-stealing pool, parallel-vs-serial bit-identical results, the result
// cache (including its on-disk store) and the RunConfig stable hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/scenario.hpp"
#include "obs/export.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/serialize.hpp"
#include "runner/thread_pool.hpp"
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
  // Repeat seeds use the run_repeats golden-ratio stride.
  EXPECT_EQ(configs[0].seed, 42u);
  EXPECT_EQ(configs[1].seed, 42u + 0x9e3779b9ULL);
}

TEST(SweepSpec, RejectsEmptyAxes) {
  EXPECT_THROW(SweepSpec().apps({}), tsx::Error);
  EXPECT_THROW(SweepSpec().tiers({}), tsx::Error);
  EXPECT_THROW(SweepSpec().repeats(0), tsx::Error);
}

// --- stable hash ----------------------------------------------------------

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

TEST(StableHash, EqualConfigsHashEqual) {
  RunConfig a;
  a.app = App::kLda;
  a.tier = mem::TierId::kTier2;
  RunConfig b = a;
  EXPECT_EQ(workloads::stable_hash(a), workloads::stable_hash(b));
}

TEST(StableHash, DifferentConfigsHashDifferent) {
  RunConfig a;
  RunConfig b;
  b.mba_percent = 50;
  EXPECT_NE(workloads::stable_hash(a), workloads::stable_hash(b));
}

TEST(StableHash, TieringFieldsAreHashed) {
  // Every tiering knob is part of a run's identity: a pre-tiering cached
  // result must never satisfy a lookup for a tiering run, and two runs
  // differing only in a tiering knob must not collide.
  const RunConfig base;
  const auto differs = [&](auto mutate) {
    RunConfig cfg;
    mutate(cfg.tiering);
    return workloads::stable_hash(cfg) != workloads::stable_hash(base);
  };
  using tiering::PolicyKind;
  using tiering::SampleMode;
  EXPECT_TRUE(differs(
      [](auto& t) { t.policy = PolicyKind::kLfuPromote; }));
  EXPECT_TRUE(differs([](auto& t) { t.epoch_ms = 25.0; }));
  EXPECT_TRUE(differs([](auto& t) { t.decay = 0.9; }));
  EXPECT_TRUE(differs([](auto& t) { t.sample = SampleMode::kAccessBits; }));
  EXPECT_TRUE(differs([](auto& t) { t.sample_period = 32; }));
  EXPECT_TRUE(differs([](auto& t) { t.hint_fault_us = 2.0; }));
  EXPECT_TRUE(differs([](auto& t) { t.fast_capacity_gib = 4.0; }));
  EXPECT_TRUE(differs([](auto& t) { t.low_watermark = 0.05; }));
  EXPECT_TRUE(differs([](auto& t) { t.high_watermark = 0.5; }));
  EXPECT_TRUE(differs([](auto& t) { t.max_fast_utilization = 0.5; }));
  EXPECT_TRUE(differs([](auto& t) { t.migration_mlp = 4.0; }));
}

TEST(StableHash, IndependentOfFieldOrder) {
  // The hash sorts (name, value) pairs internally, so reordering the field
  // list — as a future RunConfig layout change would — cannot change it.
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kLarge;
  auto fields = workloads::config_fields(cfg);
  const std::uint64_t reference = workloads::hash_fields(fields);
  std::reverse(fields.begin(), fields.end());
  EXPECT_EQ(workloads::hash_fields(fields), reference);
  std::rotate(fields.begin(), fields.begin() + 3, fields.end());
  EXPECT_EQ(workloads::hash_fields(fields), reference);
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
  // One config is poisoned: an enabled fault plane with zero task attempts
  // fails the controller's validation inside run_workload. The batch must
  // survive — the bad run becomes a failed RunResult, the healthy runs are
  // untouched, and the failure is visible in the progress feed.
  auto configs = tiny_grid().enumerate();
  const std::size_t bad = 1;
  configs[bad].fault.enabled = true;
  configs[bad].fault.executor_crashes = 1;
  configs[bad].fault.max_task_attempts = 0;

  ResultCache cache;
  std::size_t last_failures = 0;
  RunnerOptions options;
  options.threads = 2;
  options.cache = &cache;
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
  // Failed runs are never memoized — a retry must re-execute them.
  EXPECT_EQ(cache.size(), configs.size() - 1);
  EXPECT_FALSE(cache.find(configs[bad]).has_value());
}

TEST(ParallelRunner, WallTimeoutBecomesAFailedResult) {
  RunnerOptions options;
  options.threads = 2;
  options.run_timeout_seconds = 1e-9;  // no real run fits in a nanosecond
  const auto results = ParallelRunner(options).run(tiny_grid());
  ASSERT_EQ(results.size(), 4u);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("wall-clock"), std::string::npos) << r.error;
  }
}

// --- ResultCache ----------------------------------------------------------

TEST(ResultCache, HitSkipsSimulation) {
  ResultCache cache;
  RunnerOptions options;
  options.threads = 2;
  options.cache = &cache;

  const SweepSpec spec = tiny_grid();
  const std::uint64_t before = workloads::runs_executed();
  const auto first = ParallelRunner(options).run(spec);
  const std::uint64_t after_first = workloads::runs_executed();
  EXPECT_EQ(after_first - before, spec.size());
  EXPECT_EQ(cache.size(), spec.size());

  // Second pass: every run served from the cache, zero simulations.
  const auto second = ParallelRunner(options).run(spec);
  EXPECT_EQ(workloads::runs_executed(), after_first);
  EXPECT_EQ(cache.hits(), spec.size());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(results_identical(first[i], second[i]));
}

TEST(ResultCache, DistinguishesConfigs) {
  ResultCache cache;
  RunConfig a;
  RunConfig b;
  b.seed = 43;
  RunResult result;
  result.config = a;
  cache.insert(result);
  EXPECT_TRUE(cache.find(a).has_value());
  EXPECT_FALSE(cache.find(b).has_value());
}

TEST(ResultCache, SaveLoadRoundTrip) {
  const auto runs = run_sweep(tiny_grid());
  ResultCache cache;
  for (const RunResult& r : runs) cache.insert(r);

  const std::string path = ::testing::TempDir() + "/tsx_run_cache.jsonl";
  ASSERT_TRUE(cache.save(path));

  ResultCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), cache.size());
  for (const RunResult& r : runs) {
    const auto found = loaded.find(r.config);
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(results_identical(*found, r));
  }
  std::remove(path.c_str());
}

TEST(ResultCache, SaveWritesTheSameBytesWhateverTheInsertionOrder) {
  // Parallel runs finish in any order; the store must not follow it.
  std::vector<RunResult> results(40);
  for (std::size_t i = 0; i < results.size(); ++i)
    results[i].config.seed = 1000 + i;
  ResultCache forward;
  ResultCache backward;
  for (const RunResult& r : results) forward.insert(r);
  for (auto it = results.rbegin(); it != results.rend(); ++it)
    backward.insert(*it);

  const std::string a = ::testing::TempDir() + "/tsx_order_a.jsonl";
  const std::string b = ::testing::TempDir() + "/tsx_order_b.jsonl";
  ASSERT_TRUE(forward.save(a));
  ASSERT_TRUE(backward.save(b));
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes(a), bytes(b));

  ResultCache loaded;
  ASSERT_TRUE(loaded.load(a));
  EXPECT_EQ(loaded.size(), results.size());
  EXPECT_EQ(loaded.load_skipped(), 0u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ResultCache, LoadRejectsPreTieringStoreVersion) {
  // The store format was bumped when RunConfig grew the tiering section;
  // a v1 store (written before tiering existed) must fail to load rather
  // than serve results whose configs silently lack tiering fields.
  ASSERT_GE(ResultCache::kStoreVersion, 2);
  const std::string path = ::testing::TempDir() + "/tsx_v1_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"format\":\"tsx-run-cache\",\"version\":1}\n", f);
  std::fclose(f);

  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadRejectsPreDfsStoreVersion) {
  // v6 added the cluster-DFS section to the config identity; a v5 store
  // (written before DfsConfig existed) must fail to load rather than serve
  // results whose configs silently lack the dfs knobs.
  ASSERT_GE(ResultCache::kStoreVersion, 6);
  const std::string path = ::testing::TempDir() + "/tsx_v5_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"format\":\"tsx-run-cache\",\"version\":5}\n", f);
  std::fclose(f);

  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadRejectsPreColumnarRemovalStoreVersion) {
  // v7 dropped the vectorized engine's section from the config identity
  // and the result schema; a v6 store must fail to load rather than serve
  // results that carry its stale fields.
  ASSERT_GE(ResultCache::kStoreVersion, 7);
  const std::string path = ::testing::TempDir() + "/tsx_v6_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"format\":\"tsx-run-cache\",\"version\":6}\n", f);
  std::fclose(f);

  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/tsx_bad_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a cache store\n", f);
  std::fclose(f);

  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.load(path + ".does-not-exist"));
  std::remove(path.c_str());
}

TEST(ResultCache, LoadToleratesCorruptedLines) {
  // A crash mid-save (or a truncated copy) leaves garbage and half-written
  // records in the store. Loading must salvage every healthy record and
  // account for what it skipped, not reject the whole file.
  const auto runs = run_sweep(tiny_grid());
  ResultCache cache;
  for (const RunResult& r : runs) cache.insert(r);

  const std::string path = ::testing::TempDir() + "/tsx_torn_cache.jsonl";
  ASSERT_TRUE(cache.save(path));
  std::FILE* f = std::fopen(path.c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fputs("!!! not json at all !!!\n", f);
  std::fputs("{\"config\":{\"app\":\"sort\",\"scale\":\"ti", f);  // torn write
  std::fclose(f);

  ResultCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), runs.size());
  EXPECT_EQ(loaded.load_skipped(), 2u);
  for (const RunResult& r : runs) {
    const auto found = loaded.find(r.config);
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(results_identical(*found, r));
  }
  std::remove(path.c_str());
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
  // result object. The reader rejects each, naming the first leftover.
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
  };
  for (const auto& s : stale) {
    std::string line = json;
    line.insert(line.find(s.before), s.stale);
    error.clear();
    EXPECT_FALSE(result_from_json(line, &out, &error)) << s.named;
    EXPECT_NE(error.find(s.named), std::string::npos) << error;
  }
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

TEST(Serialize, EveryFig2ConfigRoundTripsToTheSameHash) {
  const auto configs =
      SweepSpec().all_apps().all_scales().all_tiers().seed(42).enumerate();
  ASSERT_EQ(configs.size(), 84u);
  for (const RunConfig& cfg : configs) {
    RunResult r;
    r.config = cfg;
    RunResult back;
    std::string error;
    ASSERT_TRUE(result_from_json(to_json(r), &back, &error)) << error;
    EXPECT_EQ(workloads::stable_hash(back.config), workloads::stable_hash(cfg))
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
  EXPECT_LT(static_cast<std::size_t>(c.tiering.policy),
            tiering::kAllPolicies.size());
  EXPECT_LT(static_cast<unsigned>(c.tiering.sample), 2u);
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

TEST(SerializeFuzz, OneDamagedStoreLineSparesEveryHealthyLine) {
  ResultCache cache;
  for (const RunResult& r : fuzz_seeds()) cache.insert(r);
  const std::string path = ::testing::TempDir() + "/tsx_fuzz_cache.jsonl";
  ASSERT_TRUE(cache.save(path));
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);  // header + three results
  std::mt19937_64 rng(0xcafe);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t victim = 1 + static_cast<std::size_t>(trial) % 3;
    std::string damaged;
    do {  // a new line byte would damage two lines, not one
      damaged = mutate(lines[victim], rng);
    } while (damaged.find('\n') != std::string::npos);
    {
      std::ofstream out(path, std::ios::trunc);
      for (std::size_t i = 0; i < lines.size(); ++i)
        out << (i == victim ? damaged : lines[i]) << '\n';
    }
    ResultCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_LE(loaded.load_skipped(), 1u);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (i == victim) continue;
      RunResult healthy;
      ASSERT_TRUE(result_from_json(lines[i], &healthy));
      const auto found = loaded.find(healthy.config);
      ASSERT_TRUE(found.has_value()) << "trial " << trial << " line " << i;
      EXPECT_TRUE(results_identical(*found, healthy));
    }
  }
  std::remove(path.c_str());
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
