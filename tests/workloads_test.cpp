// Tests for data generators, scale planning, and the seven applications'
// functional correctness (each app's own self-validation must pass) and
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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
#include "runner/serialize.hpp"
#include "sim/simulator.hpp"
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
// simulated byte. Every digest here and below was re-recorded once, when the
// retired vectorized engine's four config members and result object left the
// JSON: each is FNV-1a over the earlier bytes with those members cut out.
TEST(WorkloadGolden, SerializedResultsMatchRecordedDigests) {
  struct Golden {
    App app;
    ScaleId scale;
    mem::TierId tier;
    std::uint64_t fnv1a64;
  };
  const Golden goldens[] = {
      {App::kBayes, ScaleId::kTiny, mem::TierId::kTier0,
       0x9bd1da82276b0d73ULL},
      {App::kBayes, ScaleId::kTiny, mem::TierId::kTier2,
       0x1f3161045ae0574dULL},
      {App::kBayes, ScaleId::kSmall, mem::TierId::kTier0,
       0xe53466014c390911ULL},
      {App::kBayes, ScaleId::kSmall, mem::TierId::kTier2,
       0x1e218d146801e76dULL},
      {App::kBayes, ScaleId::kLarge, mem::TierId::kTier0,
       0xb2faccd2cc6e8b76ULL},
      {App::kBayes, ScaleId::kLarge, mem::TierId::kTier2,
       0x5a9b11c46e83a675ULL},
      {App::kLda, ScaleId::kTiny, mem::TierId::kTier0,
       0xaecd2a55f3ae28f4ULL},
      {App::kLda, ScaleId::kTiny, mem::TierId::kTier2,
       0x0f48cea89578634eULL},
      {App::kLda, ScaleId::kSmall, mem::TierId::kTier0,
       0x1b350798442c0053ULL},
      {App::kLda, ScaleId::kSmall, mem::TierId::kTier2,
       0x84809a2b27847302ULL},
      {App::kLda, ScaleId::kLarge, mem::TierId::kTier0,
       0x4c6ffa09ca3bc0b4ULL},
      {App::kLda, ScaleId::kLarge, mem::TierId::kTier2,
       0x4bbc602009838037ULL},
      {App::kAls, ScaleId::kTiny, mem::TierId::kTier0,
       0xb319f7384505e8d7ULL},
      {App::kAls, ScaleId::kTiny, mem::TierId::kTier2,
       0x32487d2c91a66bfdULL},
      {App::kAls, ScaleId::kSmall, mem::TierId::kTier0,
       0x5eedc397d3a8a651ULL},
      {App::kAls, ScaleId::kSmall, mem::TierId::kTier2,
       0x848ca620d7d35727ULL},
      {App::kAls, ScaleId::kLarge, mem::TierId::kTier0,
       0x38e402eab623fff0ULL},
      {App::kAls, ScaleId::kLarge, mem::TierId::kTier2,
       0x9a620dbdc069929dULL},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier0,
       0xfcf7679b6360d7cdULL},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier2,
       0x13c97d2e6132a0b0ULL},
      {App::kPagerank, ScaleId::kSmall, mem::TierId::kTier0,
       0xb2e9b870437038bfULL},
      {App::kPagerank, ScaleId::kSmall, mem::TierId::kTier2,
       0xd2b34db7aae2329fULL},
      {App::kPagerank, ScaleId::kLarge, mem::TierId::kTier0,
       0xe6accbd82dd57f00ULL},
      {App::kPagerank, ScaleId::kLarge, mem::TierId::kTier2,
       0x9718d81f085afb4bULL},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0,
       0x77fe19f713f6b3b5ULL},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier2,
       0xbec487ea2b9d311eULL},
      {App::kSort, ScaleId::kSmall, mem::TierId::kTier0,
       0x26f2931e92d3567eULL},
      {App::kSort, ScaleId::kSmall, mem::TierId::kTier2,
       0xb39de646e478163bULL},
      {App::kSort, ScaleId::kLarge, mem::TierId::kTier0,
       0xb721cbb29f4d8af8ULL},
      {App::kSort, ScaleId::kLarge, mem::TierId::kTier2,
       0xd6acb105b2597912ULL},
      {App::kRepartition, ScaleId::kTiny, mem::TierId::kTier0,
       0x85cb871469e34634ULL},
      {App::kRepartition, ScaleId::kTiny, mem::TierId::kTier2,
       0xdae5609aacb9d9afULL},
      {App::kRepartition, ScaleId::kSmall, mem::TierId::kTier0,
       0xd3ec4201c5470cabULL},
      {App::kRepartition, ScaleId::kSmall, mem::TierId::kTier2,
       0x2d3e1e17ed9ba9daULL},
      {App::kRepartition, ScaleId::kLarge, mem::TierId::kTier0,
       0x015547ea7e024fdaULL},
      {App::kRepartition, ScaleId::kLarge, mem::TierId::kTier2,
       0xc25e3989925da000ULL},
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
// retries 15 failed tasks and recomputes a lost map output.
TEST(WorkloadGolden, TracedAndFaultedRunsMatchRecordedDigests) {
  struct Golden {
    App app;
    ScaleId scale;
    mem::TierId tier;
    const char* scenario;  ///< fault scenario, or nullptr for none
    const char* fnv1a64;
  };
  const Golden goldens[] = {
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0, nullptr,
       "12ee719aec0ba334"},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier2, nullptr,
       "cc85b91a999ff4b8"},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier0, nullptr,
       "24f7cfdf2622aa4c"},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier2, nullptr,
       "e21e0f37be4b1459"},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0, "crash",
       "7e46261d042a4998"},
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0, "straggler",
       "11e2fd72350002cf"},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier0, "straggler",
       "6818eef55ed55571"},
      {App::kSort, ScaleId::kSmall, mem::TierId::kTier0, "chaos",
       "375cc0ffb8398e87"},
  };
  const char* prior = std::getenv("TSX_TASK_THREADS");
  const std::string saved = prior ? prior : "";
  for (const Golden& g : goldens) {
    RunConfig cfg;
    cfg.app = g.app;
    cfg.scale = g.scale;
    cfg.tier = g.tier;
    cfg.obs.enabled = true;
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
        (g.scenario != nullptr ? g.scenario : "clean");
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
  RunConfig cfg;
  cfg.app = App::kRepartition;
  cfg.scale = ScaleId::kTiny;
  const auto runs = run_repeats(cfg, 3);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].config.seed, runs[1].config.seed);
  // Same config re-run reproduces identical repeats.
  const auto runs2 = run_repeats(cfg, 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(runs[static_cast<std::size_t>(i)].exec_time.sec(),
                     runs2[static_cast<std::size_t>(i)].exec_time.sec());
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

}  // namespace
}  // namespace tsx::workloads
