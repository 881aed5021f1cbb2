// Tests for data generators, scale planning, and the seven applications'
// functional correctness (each app's own self-validation must pass) and
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "dfs/dfs.hpp"
#include "fault/scenario.hpp"
#include "mem/machine.hpp"
#include "obs/export.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/serialize.hpp"
#include "sim/simulator.hpp"
#include "spark/conf.hpp"
#include "spark/context.hpp"
#include "spark/sizer.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"
#include "workloads/runner.hpp"
#include "workloads/scales.hpp"

namespace tsx::workloads {
namespace {

// --- scales --------------------------------------------------------------------

TEST(Scales, LabelsRoundTrip) {
  for (const ScaleId s : kAllScales)
    EXPECT_EQ(scale_from_label(to_string(s)), s);
  EXPECT_THROW(scale_from_label("huge"), tsx::Error);
  EXPECT_EQ(scale_from_index(2), ScaleId::kLarge);
}

TEST(Scales, SamplePlanCapsAndMultiplies) {
  const SampledScale full = SampledScale::plan(100, 1000);
  EXPECT_EQ(full.sample, 100u);
  EXPECT_DOUBLE_EQ(full.multiplier, 1.0);
  const SampledScale capped = SampledScale::plan(100000, 1000);
  EXPECT_EQ(capped.sample, 1000u);
  EXPECT_DOUBLE_EQ(capped.multiplier, 100.0);
  EXPECT_THROW(SampledScale::plan(0, 10), tsx::Error);
}

// --- apps registry ----------------------------------------------------------------

TEST(Apps, NamesRoundTripAndCategories) {
  for (const App app : kAllApps)
    EXPECT_EQ(app_from_name(to_string(app)), app);
  EXPECT_EQ(category_of(App::kSort), AppCategory::kMicro);
  EXPECT_EQ(category_of(App::kLda), AppCategory::kMachineLearning);
  EXPECT_EQ(category_of(App::kPagerank), AppCategory::kWebSearch);
  EXPECT_THROW(app_from_name("nosuch"), tsx::Error);
}

// --- datagen -----------------------------------------------------------------------

/// One random_line_into line, written into a buffer with a guard byte on
/// each side that must survive: the line is exactly `width` bytes.
std::string drawn_line(Rng& rng, std::size_t key_width, std::size_t width) {
  std::string buf(width + 2, '#');
  random_line_into(rng, buf.data() + 1, key_width, width);
  EXPECT_EQ(buf.front(), '#');
  EXPECT_EQ(buf.back(), '#');
  return buf.substr(1, width);
}

TEST(Datagen, LinesHaveRequestedShape) {
  Rng rng(3);
  std::set<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    const std::string line = drawn_line(rng, 10, 100);
    EXPECT_EQ(line.size(), 100u);
    EXPECT_EQ(line[10], ' ');
    keys.insert(line.substr(0, 10));
  }
  EXPECT_GT(keys.size(), 18u);  // keys essentially unique
}

// The per-character loop the line generator ran before it drew from a
// local copy of the generator: random_line_into must make the same draws,
// write the same characters and leave the generator in the same state.
std::string reference_random_line(Rng& rng, std::size_t key_width,
                                  std::size_t width) {
  static constexpr char kAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string line(width, '\0');
  for (std::size_t i = 0; i < key_width; ++i)
    line[i] = kAlphabet[rng.uniform_u64(sizeof(kAlphabet) - 1)];
  line[key_width] = ' ';
  for (std::size_t i = key_width + 1; i < width; ++i)
    line[i] = static_cast<char>('a' + rng.uniform_u64(26));
  return line;
}

TEST(Datagen, RandomLineMatchesTheReferenceLoopAndRngState) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {10, 100}, {10, 11}, {0, 1}, {1, 2}, {4, 37}, {10, 250}};
  for (const std::uint64_t seed : {1ULL, 3ULL, 42ULL, 0x5eedULL}) {
    for (const auto& [key_width, width] : shapes) {
      Rng rng(seed);
      Rng ref(seed);
      (void)rng.normal();  // leaves a cached second variate in both
      (void)ref.normal();
      for (int i = 0; i < 40; ++i)
        ASSERT_EQ(drawn_line(rng, key_width, width),
                  reference_random_line(ref, key_width, width))
            << "seed " << seed << " width " << width << " line " << i;
      EXPECT_EQ(rng.normal(), ref.normal());
      for (int i = 0; i < 4; ++i) EXPECT_EQ(rng.next_u64(), ref.next_u64());
    }
  }
}

// --- FixedText: the engine must see the std::string it stands for --------------

static_assert(std::is_trivially_copyable_v<FixedText<100>>);
static_assert(std::is_trivially_copyable_v<FixedText<10>>);
static_assert(sizeof(FixedText<100>) == 100);
static_assert(sizeof(FixedText<10>) == 10);
static_assert(sizeof(FixedText<90>) == 90);

TEST(FixedText, ChargedLikeTheStringOfItsWidth) {
  EXPECT_EQ(est_bytes(FixedText<10>{}),
            spark::est_bytes(std::string(10, 'x')));
  EXPECT_EQ(est_bytes(FixedText<90>{}),
            spark::est_bytes(std::string(90, 'x')));
  EXPECT_EQ(est_bytes(FixedText<100>{}),
            spark::est_bytes(std::string(100, 'x')));
  // Through the sizer's own pair overload, as the sort's records are.
  const std::pair<FixedText<10>, FixedText<90>> kv{};
  EXPECT_EQ(spark::est_bytes(kv),
            spark::est_bytes(std::make_pair(std::string(10, 'x'),
                                            std::string(90, 'x'))));
}

TEST(FixedText, OrdersLikeStdStringIncludingHighBytes) {
  Rng rng(19);
  constexpr std::size_t kWidth = 6;
  std::vector<FixedText<kWidth>> texts;
  for (int i = 0; i < 400; ++i) {
    FixedText<kWidth> t;
    // Bytes from a small set that straddles 0x80, so equal prefixes, ties
    // and signed/unsigned disagreements all occur.
    static constexpr unsigned char kBytes[] = {0x00, 0x41, 0x7f,
                                               0x80, 0xc3, 0xff};
    for (char& c : t.bytes)
      c = static_cast<char>(kBytes[rng.uniform_u64(sizeof(kBytes))]);
    texts.push_back(t);
  }
  int high_low_pairs = 0;
  for (const auto& a : texts) {
    for (const auto& b : texts) {
      const std::string sa(a.view());
      const std::string sb(b.view());
      ASSERT_EQ(a < b, sa < sb) << "at " << &a - texts.data();
      ASSERT_EQ(a > b, sa > sb) << "at " << &a - texts.data();
      if (static_cast<unsigned char>(sa[0]) >= 0x80 &&
          static_cast<unsigned char>(sb[0]) < 0x80)
        ++high_low_pairs;
    }
  }
  EXPECT_GT(high_low_pairs, 0);
}

TEST(FixedText, SortsGeneratedLinesLikeStrings) {
  Rng rng(23);
  std::vector<FixedText<100>> lines(300);
  for (auto& line : lines) random_line_into(rng, line.data(), 10, 100);
  std::vector<std::string> strings;
  for (const auto& line : lines) strings.emplace_back(line.view());
  std::stable_sort(lines.begin(), lines.end());
  std::stable_sort(strings.begin(), strings.end());
  for (std::size_t i = 0; i < lines.size(); ++i)
    ASSERT_EQ(lines[i].view(), strings[i]) << "at " << i;
}

TEST(Datagen, RatingsWithinDomain) {
  Rng rng(5);
  const auto ratings = random_ratings(rng, 500, 50, 70);
  for (const Rating& r : ratings) {
    EXPECT_LT(r.user, 50u);
    EXPECT_LT(r.product, 70u);
    EXPECT_GE(r.score, 1.0f);
    EXPECT_LE(r.score, 5.0f);
  }
}

TEST(Datagen, PointsHaveBalancedLabelsAndSignal) {
  Rng rng(7);
  const auto points = random_points(rng, 400, 50);
  int positives = 0;
  for (const auto& p : points) {
    EXPECT_EQ(p.features.size(), 50u);
    positives += p.label > 0.5f ? 1 : 0;
  }
  EXPECT_GT(positives, 80);
  EXPECT_LT(positives, 320);
}

TEST(Datagen, GraphRowsValidTargets) {
  Rng rng(9);
  const ZipfSampler targets(100, 1.0);
  const auto rows = random_graph_rows(rng, 10, 20, 100, targets, 6);
  ASSERT_EQ(rows.size(), 20u);
  for (const auto& [page, links] : rows) {
    EXPECT_GE(page, 10u);
    EXPECT_LT(page, 30u);
    EXPECT_FALSE(links.empty());
    for (const auto t : links) {
      EXPECT_LT(t, 100u);
      EXPECT_NE(t, page);  // no self-links
    }
    // Unique (sorted-unique by construction).
    EXPECT_TRUE(std::is_sorted(links.begin(), links.end()));
  }
}

TEST(Datagen, DocumentsUseZipfVocabulary) {
  Rng rng(11);
  const ZipfSampler vocab(1000, 1.2);
  const auto doc = random_document(rng, vocab, 500);
  EXPECT_EQ(doc.size(), 500u);
  std::size_t head = 0;
  for (const auto& w : doc)
    if (w == "w0" || w == "w1" || w == "w2") ++head;
  EXPECT_GT(head, 25u);  // head words dominate
}

// --- per-app functional validation -----------------------------------------------

class AppValidation : public ::testing::TestWithParam<App> {};

TEST_P(AppValidation, TinyScalePassesSelfCheck) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kTiny;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
  EXPECT_GT(r.exec_time.sec(), 0.0);
  EXPECT_GT(r.tasks, 0u);
}

TEST_P(AppValidation, SmallScalePassesSelfCheck) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kSmall;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
}

TEST_P(AppValidation, DeterministicAcrossRuns) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kTiny;
  const RunResult a = run_workload(cfg);
  const RunResult b = run_workload(cfg);
  EXPECT_DOUBLE_EQ(a.exec_time.sec(), b.exec_time.sec());
  EXPECT_DOUBLE_EQ(a.total_cost.cpu_seconds, b.total_cost.cpu_seconds);
  EXPECT_EQ(a.nvdimm.media_writes, b.nvdimm.media_writes);
}

TEST_P(AppValidation, SeedChangesDataNotValidity) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kTiny;
  cfg.seed = 777;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppValidation,
                         ::testing::ValuesIn(kAllApps),
                         [](const ::testing::TestParamInfo<App>& info) {
                           return to_string(info.param);
                         });

// --- golden digests ---------------------------------------------------------------

// FNV-1a 64 of the serialized result of each app whose kernels have been
// rewritten for host speed, at every scale on DRAM and NVM (seed 11). The
// bayes digests were recorded while pages still carried their words as
// "w<rank>" strings; the lda, als and pagerank digests were recorded before
// their kernels' layout rewrites. A host-speed rewrite must not move a
// simulated byte. Every digest here and below was re-recorded twice, when
// schema members left the JSON with no simulated value moving: the retired
// vectorized engine's four config members and result object, then the 18
// config knobs no workload set and two always-zero tiering stats. Each is
// FNV-1a over the earlier bytes with those members cut out.
TEST(WorkloadGolden, SerializedResultsMatchRecordedDigests) {
  struct Golden {
    App app;
    ScaleId scale;
    mem::TierId tier;
    std::uint64_t fnv1a64;
  };
  const Golden goldens[] = {
      {App::kBayes, ScaleId::kTiny, mem::TierId::kTier0,
       0x782594d2583a1eaaULL},
      {App::kBayes, ScaleId::kTiny, mem::TierId::kTier2,
       0x9c75b9c9de864908ULL},
      {App::kBayes, ScaleId::kSmall, mem::TierId::kTier0,
       0x97cb2419a40226bcULL},
      {App::kBayes, ScaleId::kSmall, mem::TierId::kTier2,
       0x52d83fb14b1fc368ULL},
      {App::kBayes, ScaleId::kLarge, mem::TierId::kTier0,
       0xc61c5aca2d12fa79ULL},
      {App::kBayes, ScaleId::kLarge, mem::TierId::kTier2,
       0x64221651e59435dcULL},
      {App::kLda, ScaleId::kTiny, mem::TierId::kTier0,
       0x331e55253829200bULL},
      {App::kLda, ScaleId::kTiny, mem::TierId::kTier2,
       0xbf92fbd9b9f967cdULL},
      {App::kLda, ScaleId::kSmall, mem::TierId::kTier0,
       0x2d878e677bc53e1eULL},
      {App::kLda, ScaleId::kSmall, mem::TierId::kTier2,
       0x8883d8020ca8c781ULL},
      {App::kLda, ScaleId::kLarge, mem::TierId::kTier0,
       0x64a5eb87ef28e7abULL},
      {App::kLda, ScaleId::kLarge, mem::TierId::kTier2,
       0x5c789b7985a13ff2ULL},
      {App::kAls, ScaleId::kTiny, mem::TierId::kTier0,
       0x0ca3754579141544ULL},
      {App::kAls, ScaleId::kTiny, mem::TierId::kTier2,
       0xcc86b3066fcd48d2ULL},
      {App::kAls, ScaleId::kSmall, mem::TierId::kTier0,
       0xc9604c810681acaaULL},
      {App::kAls, ScaleId::kSmall, mem::TierId::kTier2,
       0x8af7464495c5a0acULL},
      {App::kAls, ScaleId::kLarge, mem::TierId::kTier0,
       0x9661e2d80ccbb151ULL},
      {App::kAls, ScaleId::kLarge, mem::TierId::kTier2,
       0x208d4bc010b44bf6ULL},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier0,
       0x4ebced767d4b36c4ULL},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier2,
       0xa8562f90b31f5dffULL},
      {App::kPagerank, ScaleId::kSmall, mem::TierId::kTier0,
       0x623293a219eba6c4ULL},
      {App::kPagerank, ScaleId::kSmall, mem::TierId::kTier2,
       0x4c9e022ccf424764ULL},
      {App::kPagerank, ScaleId::kLarge, mem::TierId::kTier0,
       0x5145a5dc82021749ULL},
      {App::kPagerank, ScaleId::kLarge, mem::TierId::kTier2,
       0x3ca2326b17667844ULL},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0,
       0x771f7bc66ee15148ULL},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier2,
       0x322d6131149119c5ULL},
      {App::kSort, ScaleId::kSmall, mem::TierId::kTier0,
       0x1d665b76c8848c37ULL},
      {App::kSort, ScaleId::kSmall, mem::TierId::kTier2,
       0x63f94f03340a7690ULL},
      {App::kSort, ScaleId::kLarge, mem::TierId::kTier0,
       0x4f0833cd175c9ab1ULL},
      {App::kSort, ScaleId::kLarge, mem::TierId::kTier2,
       0xcc1246726ea751f7ULL},
      {App::kRepartition, ScaleId::kTiny, mem::TierId::kTier0,
       0x672194745dedd953ULL},
      {App::kRepartition, ScaleId::kTiny, mem::TierId::kTier2,
       0xc4dd1e77384247f2ULL},
      {App::kRepartition, ScaleId::kSmall, mem::TierId::kTier0,
       0xbea4d7c3c6c29adaULL},
      {App::kRepartition, ScaleId::kSmall, mem::TierId::kTier2,
       0x51f17b9eb9b42481ULL},
      {App::kRepartition, ScaleId::kLarge, mem::TierId::kTier0,
       0x680c6de4c4a9b6c5ULL},
      {App::kRepartition, ScaleId::kLarge, mem::TierId::kTier2,
       0xa2fdc7fca0ce6ee3ULL},
  };
  for (const Golden& g : goldens) {
    RunConfig cfg;
    cfg.app = g.app;
    cfg.scale = g.scale;
    cfg.tier = g.tier;
    cfg.seed = 11;
    const RunResult r = run_workload(cfg);
    EXPECT_TRUE(r.valid) << r.validation;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char ch : runner::to_json(r)) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(strfmt("%016llx", static_cast<unsigned long long>(h)),
              strfmt("%016llx", static_cast<unsigned long long>(g.fnv1a64)))
        << to_string(g.app) << " " << to_string(g.scale) << " on "
        << mem::to_string(g.tier);
  }
}

/// FNV-1a 64 over a run's result JSON, metrics JSONL and Chrome trace.
std::string run_digest(const RunConfig& cfg) {
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
  std::string bytes = runner::to_json(r);
  if (r.trace != nullptr)
    bytes += obs::metrics_jsonl(r.trace->metrics()) +
             obs::chrome_trace_json(*r.trace);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return strfmt("%016llx", static_cast<unsigned long long>(h));
}

// Pins the stage runner across commits, not only across thread counts:
// results, metrics and trace bytes of obs-on fault-free runs (serial and on
// a task pool) and of faulted runs. A scheduler change that moves a digest
// moves simulated output. The tiny sort drills only speculate; straggler
// pagerank stretches 8 tasks, and chaos sort/small crashes an executor,
// retries 15 failed tasks and recomputes a lost map output. The last row
// attaches the tiering engine and the fault plane to one run, so it pins
// how SparkContext wires both observers into the same components.
TEST(WorkloadGolden, TracedAndFaultedRunsMatchRecordedDigests) {
  struct Golden {
    App app;
    ScaleId scale;
    mem::TierId tier;
    const char* scenario;  ///< fault scenario, or nullptr for none
    const char* fnv1a64;
    const char* policy = "static";  ///< tiering policy name
  };
  const Golden goldens[] = {
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0, nullptr,
       "04d32ed5dddbb38f"},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier2, nullptr,
       "9f7fca8ff694ecbf"},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier0, nullptr,
       "077142540f87524f"},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier2, nullptr,
       "5b1d033f687c1b40"},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0, "crash",
       "58d6bc5c97765cbb"},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0, "straggler",
       "6024cf05062a94a8"},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier0, "straggler",
       "63d7a7a7c9d31fc8"},
      {App::kSort, ScaleId::kSmall, mem::TierId::kTier0, "chaos",
       "4a1ac2554e3fd396"},
      {App::kSort, ScaleId::kSmall, mem::TierId::kTier2, "crash",
       "59d61ada5227d17a", "lfu-promote"},
  };
  const char* prior = std::getenv("TSX_TASK_THREADS");
  const std::string saved = prior ? prior : "";
  for (const Golden& g : goldens) {
    RunConfig cfg;
    cfg.app = g.app;
    cfg.scale = g.scale;
    cfg.tier = g.tier;
    cfg.obs.enabled = true;
    cfg.tiering.policy = tiering::policy_from_name(g.policy);
    if (g.scenario != nullptr) {
      // The executor shape of spark_parallel_test's
      // ParallelPlane.FaultModeIgnoresTaskThreads.
      cfg.executors = 2;
      cfg.cores_per_executor = 20;
      cfg.fault = fault::scenario(g.scenario);
    }
    const std::string label =
        to_string(g.app) + "/" + to_string(g.scale) + " on " +
        mem::to_string(g.tier) + " " +
        (g.scenario != nullptr ? g.scenario : "clean") + " " + g.policy;
    for (const char* threads : {"0", "4"}) {
      setenv("TSX_TASK_THREADS", threads, 1);
      EXPECT_EQ(run_digest(cfg), g.fnv1a64)
          << label << " with " << threads << " task threads";
    }
  }
  if (prior)
    setenv("TSX_TASK_THREADS", saved.c_str(), 1);
  else
    unsetenv("TSX_TASK_THREADS");
}

// --- dataset reuse across tiers ---------------------------------------------------

/// Runs `configs` in order on a fresh thread, so the runner's dataset memo
/// starts empty, and returns each result's serialized bytes.
std::vector<std::string> run_on_fresh_thread(
    const std::vector<RunConfig>& configs) {
  std::vector<std::string> out;
  std::thread worker([&] {
    for (const RunConfig& cfg : configs)
      out.push_back(runner::to_json(run_workload(cfg)));
  });
  worker.join();
  return out;
}

class DatasetReuse : public ::testing::TestWithParam<App> {};

// A tier group run back to back (the later tiers served from the memo) must
// serialize exactly like each tier run cold, serially and on a task pool.
TEST_P(DatasetReuse, WarmTierGroupMatchesColdRuns) {
  for (const ScaleId scale : {ScaleId::kTiny, ScaleId::kSmall}) {
    std::vector<RunConfig> group;
    for (const mem::TierId tier : mem::kAllTiers) {
      RunConfig cfg;
      cfg.app = GetParam();
      cfg.scale = scale;
      cfg.tier = tier;
      cfg.seed = 5;
      group.push_back(cfg);
    }
    std::vector<std::string> cold;
    for (const RunConfig& cfg : group)
      cold.push_back(run_on_fresh_thread({cfg}).front());
    EXPECT_EQ(run_on_fresh_thread(group), cold) << to_string(scale);

    const char* prior = std::getenv("TSX_TASK_THREADS");
    const std::string saved = prior ? prior : "";
    setenv("TSX_TASK_THREADS", "4", 1);
    EXPECT_EQ(run_on_fresh_thread(group), cold)
        << to_string(scale) << " with 4 task threads";
    if (prior)
      setenv("TSX_TASK_THREADS", saved.c_str(), 1);
    else
      unsetenv("TSX_TASK_THREADS");
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, DatasetReuse, ::testing::ValuesIn(kAllApps),
                         [](const ::testing::TestParamInfo<App>& info) {
                           return to_string(info.param);
                         });

TEST(DatasetReuse, GroupKeyMasksOnlyTheTier) {
  RunConfig base;
  base.app = App::kSort;
  base.scale = ScaleId::kTiny;
  base.seed = 9;
  RunConfig other_tier = base;
  other_tier.tier = mem::TierId::kTier3;
  EXPECT_EQ(dataset_group_key(base), dataset_group_key(other_tier));
  EXPECT_NE(canonical_key(base), canonical_key(other_tier));

  RunConfig other_scale = base;
  other_scale.scale = ScaleId::kSmall;  // same seed, different dataset
  EXPECT_NE(dataset_group_key(base), dataset_group_key(other_scale));
  RunConfig other_seed = base;
  other_seed.seed = 10;
  EXPECT_NE(dataset_group_key(base), dataset_group_key(other_seed));
  RunConfig other_shuffle_tier = base;
  other_shuffle_tier.shuffle_tier = mem::TierId::kTier2;
  EXPECT_NE(dataset_group_key(base), dataset_group_key(other_shuffle_tier));
}

// Moves `v` to another value of its type; an enum steps through its codec.
void bump(bool& v) { v = !v; }
void bump(double& v) { v += 1.0; }
void bump(std::string& v) { v += "x"; }
void bump(std::optional<mem::TierId>& v) {
  v = v ? std::nullopt : std::optional<mem::TierId>(mem::TierId::kTier1);
}
template <typename T>
  requires std::is_integral_v<T>
void bump(T& v) { ++v; }
template <typename E, typename Codec>
void bump(E& v, Codec codec) {
  try {
    v = codec(static_cast<int>(v) + 1);
  } catch (const tsx::Error&) {
    v = codec(0);
  }
}

TEST(DatasetReuse, GroupKeyMovesWithEveryFieldButTheTier) {
  // Walk the RunConfig field table and change one field at a time: only the
  // tier may share a dataset group, since no generator reads it.
  const RunConfig base;
  std::size_t fields = 0;
  visit_config(base, [&](const char*, const auto&, auto...) { ++fields; });
  ASSERT_EQ(fields, 45u);
  for (std::size_t target = 0; target < fields; ++target) {
    RunConfig changed = base;
    std::string name;
    std::size_t at = 0;
    visit_config(changed, [&](const char* field, auto& v, auto... codec) {
      if (at++ != target) return;
      name = field;
      bump(v, codec...);
    });
    EXPECT_NE(canonical_key(changed), canonical_key(base)) << name;
    if (name == "tier")
      EXPECT_EQ(dataset_group_key(changed), dataset_group_key(base));
    else
      EXPECT_NE(dataset_group_key(changed), dataset_group_key(base)) << name;
  }
}

// --- runner ------------------------------------------------------------------------

TEST(Runner, ResultCarriesAllInstruments) {
  RunConfig cfg;
  cfg.app = App::kBayes;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;
  const RunResult r = run_workload(cfg);
  EXPECT_EQ(r.traffic.size(), 4u);
  EXPECT_GT(r.nvdimm.total_media_ops(), 0u);  // bound to NVM
  EXPECT_EQ(r.energy.size(), 4u);
  EXPECT_GT(r.bound_node_energy_per_dimm().j(), 0.0);
  EXPECT_GT(r.wear.lifetime_fraction_used, 0.0);
  EXPECT_GT(r.events[metrics::SysEvent::kInstructions], 0.0);
  EXPECT_FALSE(r.config.describe().empty());
}

TEST(Runner, DramRunTouchesNoNvm) {
  RunConfig cfg;
  cfg.app = App::kSort;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier0;
  const RunResult r = run_workload(cfg);
  EXPECT_EQ(r.nvdimm.total_media_ops(), 0u);
  EXPECT_DOUBLE_EQ(r.wear.lifetime_fraction_used, 0.0);
}

TEST(Runner, RepeatsVarySeedsDeterministically) {
  const auto spec = runner::SweepSpec()
                        .apps({App::kRepartition})
                        .scales({ScaleId::kTiny})
                        .repeats(3);
  runner::RunnerOptions options;
  options.threads = 2;
  const auto runs = runner::ParallelRunner(options).run(spec);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].config.seed, runs[1].config.seed);
  // Same spec re-run reproduces identical repeats.
  const auto runs2 = runner::ParallelRunner(options).run(spec);
  ASSERT_EQ(runs2.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(runs[i].exec_time.sec(), runs2[i].exec_time.sec());
    EXPECT_TRUE(runner::results_identical(runs[i], runs2[i])) << i;
  }
}

TEST(Runner, RejectsMalformedTaskEnvKnobs) {
  RunConfig cfg;
  cfg.app = App::kSort;
  cfg.scale = ScaleId::kTiny;
  struct Knob {
    const char* name;
    const char* value;
  };
  const Knob bad[] = {{"TSX_TASK_THREADS", "abc"},
                      {"TSX_TASK_THREADS", "4x"},
                      {"TSX_TASK_THREADS", ""},
                      {"TSX_TASK_THREADS", "-1"}};
  for (const Knob& k : bad) {
    setenv(k.name, k.value, 1);
    try {
      run_workload(cfg);
      ADD_FAILURE() << k.name << "=" << k.value << " was accepted";
    } catch (const tsx::Error& e) {
      EXPECT_NE(std::string(e.what()).find(k.name), std::string::npos)
          << e.what();
    }
    unsetenv(k.name);
  }
  // A well-formed value still runs.
  setenv("TSX_TASK_THREADS", "2", 1);
  EXPECT_TRUE(run_workload(cfg).valid);
  unsetenv("TSX_TASK_THREADS");
}

TEST(Runner, ExecutorGridConfigApplies) {
  RunConfig cfg;
  cfg.app = App::kRepartition;
  cfg.scale = ScaleId::kTiny;
  cfg.executors = 4;
  cfg.cores_per_executor = 10;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid);
}

// --- placement -------------------------------------------------------------------

TEST(ConfigIdentity, PlacementFieldsKeepTheFrozenEncoding) {
  // The three binds enter the config's identity and JSON under their
  // frozen names, positions and encodings.
  RunConfig cfg;
  cfg.tier = mem::TierId::kTier2;
  cfg.cache_tier = mem::TierId::kTier0;
  const auto fields = workloads::config_fields(cfg);
  ASSERT_GT(fields.size(), 9u);
  EXPECT_EQ(fields[2].first, "tier");
  EXPECT_EQ(fields[2].second, "2");
  EXPECT_EQ(fields[8].first, "shuffle_tier");
  EXPECT_EQ(fields[8].second, "none");
  EXPECT_EQ(fields[9].first, "cache_tier");
  EXPECT_EQ(fields[9].second, "0");
}

TEST(ConfigIdentity, PlacementOverridesEnterTheKey) {
  RunConfig base;
  base.tier = mem::TierId::kTier2;
  base.shuffle_tier = mem::TierId::kTier0;
  RunConfig same = base;
  EXPECT_EQ(workloads::canonical_key(base), workloads::canonical_key(same));
  same.shuffle_tier = mem::TierId::kTier1;
  EXPECT_NE(workloads::canonical_key(base), workloads::canonical_key(same));
  same = base;
  same.cache_tier = mem::TierId::kTier2;  // equal to the heap bind, still set
  EXPECT_NE(workloads::canonical_key(base), workloads::canonical_key(same));
}

// --- storage budget ----------------------------------------------------------------

TEST(StorageBudget, BlockManagerAndValidateReadTheOneBudget) {
  // SparkContext sizes its BlockManager with spark::storage_budget, and
  // RunConfig::validate flags a cache bind exactly when that budget
  // exceeds the bound DRAM node: 8 executors fit, 9 do not.
  const mem::TopologySpec topo = mem::testbed_topology();
  for (const int executors : {1, 8, 9}) {
    const Bytes budget = spark::storage_budget(executors);
    sim::Simulator simulator;
    mem::MachineModel machine(simulator);
    dfs::Dfs fs;
    spark::SparkConf conf;
    conf.executor_instances = executors;
    spark::SparkContext sc(machine, fs, conf, 42);
    EXPECT_EQ(sc.block_manager().budget().b(), budget.b()) << executors;

    RunConfig cfg;
    cfg.executors = executors;
    const mem::NodeId dram = mem::resolve_tier(topo, cfg.socket, cfg.tier).node;
    const bool over = budget.b() > topo.node(dram).capacity.b();
    EXPECT_EQ(over, executors == 9) << executors;
    const auto issues = cfg.validate();
    const bool flagged =
        std::any_of(issues.begin(), issues.end(), [](const Diagnostic& d) {
          return d.field == "cache_tier";
        });
    EXPECT_EQ(flagged, over) << executors;
  }
}

// --- RunConfig::validate ------------------------------------------------------------

TEST(RunConfigValidate, DefaultConfigIsClean) {
  EXPECT_TRUE(RunConfig{}.validate().empty());
}

TEST(RunConfigValidate, ItemizesEveryDeploymentProblem) {
  RunConfig cfg;
  cfg.executors = 0;
  cfg.cores_per_executor = 0;
  cfg.socket = 7;
  cfg.mba_percent = 101;
  cfg.background_load_gbps = -1.0;
  std::vector<std::string> fields;
  for (const tsx::Diagnostic& d : cfg.validate()) fields.push_back(d.field);
  EXPECT_NE(std::find(fields.begin(), fields.end(), "executors"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "cores_per_executor"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "socket"), fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "mba_percent"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "background_load_gbps"),
            fields.end());
}

TEST(RunConfigValidate, RejectsNonFiniteBackgroundLoad) {
  for (const double gbps : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::infinity()}) {
    RunConfig cfg;
    cfg.background_load_gbps = gbps;
    const auto issues = cfg.validate();
    ASSERT_EQ(issues.size(), 1u) << gbps;
    EXPECT_EQ(issues[0].field, "background_load_gbps");
  }
  RunConfig finite;
  finite.background_load_gbps = 1e300;
  EXPECT_TRUE(finite.validate().empty());
}

TEST(RunConfigValidate, FlagsOverCapacityCacheBind) {
  // 9 executors x 16 GiB heap x 0.5 storage fraction = 72 GiB of cached
  // blocks against a 64 GiB DRAM node; 8 executors (64 GiB) just fits.
  RunConfig cfg;
  cfg.executors = 9;
  ASSERT_EQ(cfg.validate().size(), 1u);
  EXPECT_EQ(cfg.validate()[0].field, "cache_tier");
  cfg.executors = 8;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(RunConfigValidate, PrefixesTieringDiagnosticsUnderDynamicPolicies) {
  RunConfig cfg;
  cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
  cfg.tiering.epoch_ms = 0.0;
  // The same broken knob is inert — and unreported — under the static
  // policy.
  RunConfig inert = cfg;
  inert.tiering.policy = tiering::PolicyKind::kStatic;
  EXPECT_TRUE(inert.validate().empty());
  const auto issues = cfg.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "tiering.epoch_ms");
}

TEST(RunConfigValidate, CatchesTieringFaultConflict) {
  RunConfig cfg;
  cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
  cfg.fault.enabled = true;
  cfg.fault.offline_tier = 0;
  const auto issues = cfg.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].field, "fault.offline_tier");
}

TEST(RunConfigValidate, ThrowHelperItemizesDiagnostics) {
  RunConfig cfg;
  cfg.executors = 0;
  try {
    workloads::validate_or_throw(cfg);
    FAIL() << "expected tsx::Error";
  } catch (const tsx::Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid RunConfig"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("executors"), std::string::npos);
  }
}

TEST(RunConfigValidate, RunWorkloadEnforcesValidation) {
  RunConfig cfg;
  cfg.mba_percent = 0;
  EXPECT_THROW(workloads::run_workload(cfg), tsx::Error);
}

}  // namespace
}  // namespace tsx::workloads
