// Tests for the cross-workload predictor and the CSV report exporter.
#include <gtest/gtest.h>

#include "analysis/cross_predictor.hpp"
#include "analysis/guidelines.hpp"
#include "core/error.hpp"
#include "core/strings.hpp"
#include "workloads/report.hpp"

namespace tsx {
namespace {

using analysis::CrossWorkloadPredictor;
using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

std::vector<RunResult> runs_for(App app, ScaleId scale) {
  std::vector<RunResult> out;
  for (const mem::TierId tier : mem::kAllTiers) {
    RunConfig cfg;
    cfg.app = app;
    cfg.scale = scale;
    cfg.tier = tier;
    out.push_back(workloads::run_workload(cfg));
  }
  return out;
}

// --- cross-workload predictor -----------------------------------------------------

class CrossPredictorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    all_runs_ = new std::vector<RunResult>();
    profiles_ = new std::vector<RunResult>();
    for (const App app : {App::kBayes, App::kLda, App::kSort,
                          App::kPagerank}) {
      for (const ScaleId scale : {ScaleId::kSmall, ScaleId::kLarge}) {
        auto runs = runs_for(app, scale);
        profiles_->push_back(runs[0]);  // Tier-0 profile
        for (auto& r : runs) all_runs_->push_back(std::move(r));
      }
    }
  }
  static void TearDownTestSuite() {
    delete all_runs_;
    delete profiles_;
    all_runs_ = nullptr;
    profiles_ = nullptr;
  }

  static std::vector<RunResult>* all_runs_;
  static std::vector<RunResult>* profiles_;
};

std::vector<RunResult>* CrossPredictorFixture::all_runs_ = nullptr;
std::vector<RunResult>* CrossPredictorFixture::profiles_ = nullptr;

TEST_F(CrossPredictorFixture, FitsAndPredictsTrainingSet) {
  const CrossWorkloadPredictor model =
      CrossWorkloadPredictor::fit(*all_runs_, *profiles_);
  EXPECT_GT(model.model().r_squared, 0.9);
  // In-sample error stays moderate for every run.
  for (const RunResult& r : *all_runs_) {
    const RunResult* profile = nullptr;
    for (const RunResult& p : *profiles_)
      if (p.config.app == r.config.app && p.config.scale == r.config.scale)
        profile = &p;
    ASSERT_NE(profile, nullptr);
    EXPECT_LT(model.relative_error(*profile, r), 0.8)
        << workloads::to_string(r.config.app);
  }
}

TEST_F(CrossPredictorFixture, GeneralizesToHeldOutWorkload) {
  // Train without bayes, predict bayes across tiers from its Tier-0
  // profile only — the Sec. IV-F vision.
  std::vector<RunResult> train;
  for (const RunResult& r : *all_runs_)
    if (r.config.app != App::kBayes) train.push_back(r);
  const CrossWorkloadPredictor model =
      CrossWorkloadPredictor::fit(train, *profiles_);

  // The suite already ran bayes-large on every tier, in tier order.
  std::vector<const RunResult*> bayes_runs;
  for (const RunResult& r : *all_runs_)
    if (r.config.app == App::kBayes && r.config.scale == ScaleId::kLarge)
      bayes_runs.push_back(&r);
  ASSERT_EQ(bayes_runs.size(), mem::kAllTiers.size());
  const RunResult& profile = *bayes_runs[0];
  // Order must be predicted right even if magnitudes drift.
  double prev = 0.0;
  for (const mem::TierId tier :
       {mem::TierId::kTier0, mem::TierId::kTier2, mem::TierId::kTier3}) {
    const double predicted = model.predict(profile, tier).sec();
    EXPECT_GT(predicted, prev) << mem::to_string(tier);
    prev = predicted;
  }
  // DRAM-tier interpolation lands near the truth.
  EXPECT_LT(model.relative_error(profile, *bayes_runs[1]), 0.6);
}

TEST(CrossPredictorErrors, RequiresProfiles) {
  RunConfig cfg;
  cfg.app = App::kRepartition;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier1;
  const std::vector<RunResult> train = {workloads::run_workload(cfg)};
  EXPECT_THROW(CrossWorkloadPredictor::fit(train, {}), tsx::Error);
}

TEST(CrossPredictorFeatures, ReflectTierSpecs) {
  RunConfig cfg;
  cfg.app = App::kRepartition;
  cfg.scale = ScaleId::kTiny;
  const RunResult profile = workloads::run_workload(cfg);
  const auto f0 =
      CrossWorkloadPredictor::features(profile, mem::TierId::kTier0);
  const auto f3 =
      CrossWorkloadPredictor::features(profile, mem::TierId::kTier3);
  ASSERT_EQ(f0.size(), f3.size());
  EXPECT_GT(f3[1], f0[1]);  // llc x latency grows with the tier
  EXPECT_GT(f3[3], f0[3]);  // streaming time grows as bandwidth collapses
}

// --- guidelines ---------------------------------------------------------------------

TEST_F(CrossPredictorFixture, AdviceReflectsWorkloadCharacter) {
  const CrossWorkloadPredictor model =
      CrossWorkloadPredictor::fit(*all_runs_, *profiles_);

  const RunResult* lda = nullptr;
  const RunResult* sort = nullptr;
  for (const RunResult& p : *profiles_) {
    if (p.config.app == App::kLda && p.config.scale == ScaleId::kLarge)
      lda = &p;
    if (p.config.app == App::kSort && p.config.scale == ScaleId::kLarge)
      sort = &p;
  }
  ASSERT_NE(lda, nullptr);
  ASSERT_NE(sort, nullptr);

  const analysis::DeploymentAdvice lda_advice = analysis::advise(*lda, model);
  EXPECT_TRUE(lda_advice.write_heavy);  // Takeaway 3's poster child
  EXPECT_GT(lda_advice.predicted_t3_ratio, lda_advice.predicted_t2_ratio);
  EXPECT_FALSE(lda_advice.summary.empty());

  const analysis::DeploymentAdvice sort_advice =
      analysis::advise(*sort, model);
  EXPECT_FALSE(sort_advice.summary.empty());
  EXPECT_GT(sort_advice.predicted_t2_ratio, 1.0);
}

TEST_F(CrossPredictorFixture, AdvicePolicyThresholdsApply) {
  const CrossWorkloadPredictor model =
      CrossWorkloadPredictor::fit(*all_runs_, *profiles_);
  const RunResult& profile = profiles_->front();

  analysis::GuidelinePolicy lax;
  lax.nvm_tolerance = 1000.0;
  EXPECT_TRUE(analysis::advise(profile, model, lax).nvm_suitable);

  analysis::GuidelinePolicy strict;
  strict.nvm_tolerance = 0.0;
  EXPECT_FALSE(analysis::advise(profile, model, strict).nvm_suitable);
}

TEST(GuidelineErrors, RequiresTierZeroProfile) {
  std::vector<RunResult> train;
  std::vector<RunResult> profiles;
  for (const ScaleId scale : {ScaleId::kTiny, ScaleId::kSmall}) {
    for (RunResult& r : runs_for(App::kRepartition, scale)) {
      if (r.config.tier == mem::TierId::kTier0) profiles.push_back(r);
      train.push_back(std::move(r));
    }
  }
  const CrossWorkloadPredictor model =
      CrossWorkloadPredictor::fit(train, profiles);
  // Advising from a non-Tier-0 run is a usage error.
  const RunResult* remote = nullptr;
  for (const RunResult& r : train)
    if (r.config.tier == mem::TierId::kTier2) remote = &r;
  ASSERT_NE(remote, nullptr);
  EXPECT_THROW(analysis::advise(*remote, model), tsx::Error);
}

// --- CSV report ---------------------------------------------------------------------

TEST(Report, HeaderMatchesFieldCount) {
  RunConfig cfg;
  cfg.app = App::kRepartition;
  cfg.scale = ScaleId::kTiny;
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_EQ(workloads::csv_header().size(),
            workloads::csv_fields(r).size());
}

TEST(Report, CsvDocumentShape) {
  RunConfig cfg;
  cfg.app = App::kAls;
  cfg.scale = ScaleId::kTiny;
  const std::vector<RunResult> runs = {workloads::run_workload(cfg)};
  const std::string doc = workloads::results_to_csv(runs);
  const auto lines = split(trim(doc), '\n');
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[0], "app,scale,tier"));
  EXPECT_TRUE(starts_with(lines[1], "als,tiny,0"));
  // Every row has as many cells as the header.
  EXPECT_EQ(split(lines[1], ',').size(), split(lines[0], ',').size());
}

TEST(Report, ValuesRoundTripSensibly) {
  RunConfig cfg;
  cfg.app = App::kBayes;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;
  cfg.zero_copy_shuffle = true;
  const RunResult r = workloads::run_workload(cfg);
  const auto fields = workloads::csv_fields(r);
  const auto header = workloads::csv_header();
  auto field = [&](const std::string& name) -> std::string {
    for (std::size_t i = 0; i < header.size(); ++i)
      if (header[i] == name) return fields[i];
    ADD_FAILURE() << "no column " << name;
    return "";
  };
  EXPECT_EQ(field("tier"), "2");
  EXPECT_EQ(field("zero_copy"), "1");
  EXPECT_EQ(field("valid"), "1");
  EXPECT_GT(std::stod(field("exec_time_s")), 0.0);
  EXPECT_GT(std::stoull(field("nvm_media_writes")), 0u);
}

}  // namespace
}  // namespace tsx
