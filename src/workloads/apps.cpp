#include "workloads/apps.hpp"

#include "core/error.hpp"

namespace tsx::workloads {

std::string to_string(App app) {
  switch (app) {
    case App::kSort: return "sort";
    case App::kRepartition: return "repartition";
    case App::kAls: return "als";
    case App::kBayes: return "bayes";
    case App::kRf: return "rf";
    case App::kLda: return "lda";
    case App::kPagerank: return "pagerank";
  }
  TSX_FAIL("bad App");
}

App app_from_name(const std::string& name) {
  for (const App app : kAllApps)
    if (to_string(app) == name) return app;
  TSX_FAIL("unknown app: " + name);
}

App app_from_index(int i) {
  TSX_CHECK(i >= 0 && i < static_cast<int>(kAllApps.size()),
            "app index out of range");
  return static_cast<App>(i);
}

AppCategory category_of(App app) {
  switch (app) {
    case App::kSort:
    case App::kRepartition:
      return AppCategory::kMicro;
    case App::kAls:
    case App::kBayes:
    case App::kRf:
    case App::kLda:
      return AppCategory::kMachineLearning;
    case App::kPagerank:
      return AppCategory::kWebSearch;
  }
  TSX_FAIL("bad App");
}

std::string to_string(AppCategory c) {
  switch (c) {
    case AppCategory::kMicro: return "micro";
    case AppCategory::kMachineLearning: return "ml";
    case AppCategory::kWebSearch: return "websearch";
  }
  TSX_FAIL("bad AppCategory");
}

AppOutcome run_app(App app, spark::SparkContext& sc, ScaleId scale) {
  switch (app) {
    case App::kSort: return run_sort(sc, scale);
    case App::kRepartition: return run_repartition(sc, scale);
    case App::kAls: return run_als(sc, scale);
    case App::kBayes: return run_bayes(sc, scale);
    case App::kRf: return run_rf(sc, scale);
    case App::kLda: return run_lda(sc, scale);
    case App::kPagerank: return run_pagerank(sc, scale);
  }
  TSX_FAIL("bad App");
}

}  // namespace tsx::workloads
