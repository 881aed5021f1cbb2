// The seven HiBench workloads of Table II.
//
// Each app is a driver program against the Spark engine: it builds its
// input through the deterministic generators, runs real transformations and
// actions, and self-validates its output (the `validation` note). App run
// functions set the context's cost multiplier according to the virtual
// scaling plan for the requested ScaleId.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "spark/context.hpp"
#include "workloads/scales.hpp"

namespace tsx::workloads {

enum class App : int {
  kSort = 0,
  kRepartition,
  kAls,
  kBayes,
  kRf,
  kLda,
  kPagerank,
};

inline constexpr std::array<App, 7> kAllApps = {
    App::kSort, App::kRepartition, App::kAls,     App::kBayes,
    App::kRf,   App::kLda,         App::kPagerank};

std::string to_string(App app);
App app_from_name(const std::string& name);
/// Range-checked inverse of `static_cast<int>(app)`.
App app_from_index(int i);

/// Workload category (Table II groups: micro, ML, websearch).
enum class AppCategory { kMicro, kMachineLearning, kWebSearch };
AppCategory category_of(App app);
std::string to_string(AppCategory c);

struct AppOutcome {
  std::vector<spark::JobMetrics> jobs;
  std::string validation;  ///< human-readable self-check summary
  bool valid = false;      ///< did the output pass its self-check
};

AppOutcome run_sort(spark::SparkContext& sc, ScaleId scale);
AppOutcome run_repartition(spark::SparkContext& sc, ScaleId scale);
AppOutcome run_als(spark::SparkContext& sc, ScaleId scale);
AppOutcome run_bayes(spark::SparkContext& sc, ScaleId scale);
AppOutcome run_rf(spark::SparkContext& sc, ScaleId scale);
AppOutcome run_lda(spark::SparkContext& sc, ScaleId scale);
AppOutcome run_pagerank(spark::SparkContext& sc, ScaleId scale);

/// Dispatch by enum.
AppOutcome run_app(App app, spark::SparkContext& sc, ScaleId scale);

}  // namespace tsx::workloads
