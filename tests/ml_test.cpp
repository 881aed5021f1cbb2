// Unit tests for the ML kernels the workloads are built from: the ridge
// solver behind ALS, the CART tree behind the random forest and the naive
// Bayes model builder/classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workloads/ml/decision_tree.hpp"
#include "workloads/ml/naive_bayes.hpp"
#include "workloads/ml/ridge.hpp"

namespace tsx::workloads::ml {
namespace {

// --- ridge solver -------------------------------------------------------------

TEST(Ridge, DotProduct) {
  const Factor<3> a = {1, 2, 3};
  const Factor<3> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ((dot<3>(a, b)), 32.0);
}

TEST(Ridge, RecoversExactFactorFromCleanObservations) {
  // Other-side factors = identity basis, ratings = target coordinates:
  // with tiny ridge the solution converges to the target factor.
  FactorTable<3> basis = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::pair<std::uint32_t, float>> obs = {
      {0, 2.0f}, {1, -1.0f}, {2, 0.5f}};
  const Factor<3> x = solve_ridge<3>(obs, basis, 1e-9);
  EXPECT_NEAR(x[0], 2.0, 1e-6);
  EXPECT_NEAR(x[1], -1.0, 1e-6);
  EXPECT_NEAR(x[2], 0.5, 1e-6);
}

TEST(Ridge, RidgeShrinksTowardZero) {
  FactorTable<2> basis = {{1, 0}, {0, 1}};
  std::vector<std::pair<std::uint32_t, float>> obs = {{0, 4.0f}, {1, 4.0f}};
  const Factor<2> strong = solve_ridge<2>(obs, basis, 100.0);
  const Factor<2> weak = solve_ridge<2>(obs, basis, 1e-9);
  EXPECT_LT(std::abs(strong[0]), std::abs(weak[0]));
  EXPECT_NEAR(weak[0], 4.0, 1e-6);
  EXPECT_NEAR(strong[0], 4.0 / 101.0, 1e-9);  // (1+ridge)x = y
}

TEST(Ridge, NoObservationsGivesZero) {
  FactorTable<4> others(10);
  const Factor<4> x = solve_ridge<4>({}, others, 0.1);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Ridge, RejectsBadInput) {
  FactorTable<2> others(2);
  std::vector<std::pair<std::uint32_t, float>> bad = {{7, 1.0f}};
  EXPECT_THROW((solve_ridge<2>(bad, others, 0.1)), tsx::Error);
  EXPECT_THROW((solve_ridge<2>({}, others, 0.0)), tsx::Error);
}

TEST(Ridge, LeastSquaresResidualOrthogonality) {
  // Overdetermined noisy system: the ridge solution with tiny ridge should
  // equal the normal-equation least squares solution; verify by checking
  // the residual is orthogonal to the design columns.
  Rng rng(3);
  FactorTable<2> others;
  std::vector<std::pair<std::uint32_t, float>> obs;
  const Factor<2> truth = {1.5, -0.5};
  for (int i = 0; i < 50; ++i) {
    Factor<2> f = {rng.normal(), rng.normal()};
    others.push_back(f);
    obs.emplace_back(static_cast<std::uint32_t>(i),
                     static_cast<float>(dot<2>(f, truth) + 0.1 * rng.normal()));
  }
  const Factor<2> x = solve_ridge<2>(obs, others, 1e-9);
  double r_dot_c0 = 0.0, r_dot_c1 = 0.0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const double r = obs[i].second - dot<2>(others[i], x);
    r_dot_c0 += r * others[i][0];
    r_dot_c1 += r * others[i][1];
  }
  EXPECT_NEAR(r_dot_c0, 0.0, 1e-6);
  EXPECT_NEAR(r_dot_c1, 0.0, 1e-6);
  EXPECT_NEAR(x[0], truth[0], 0.1);
  EXPECT_NEAR(x[1], truth[1], 0.1);
}

// The solver as it was before it accumulated only the upper triangle: the
// full normal matrix, every (i, j) summed over the observations in order.
template <int Rank>
Factor<Rank> full_accumulation_solve(
    const std::vector<std::pair<std::uint32_t, float>>& observations,
    const FactorTable<Rank>& other, double ridge) {
  std::array<std::array<double, Rank>, Rank> a{};
  Factor<Rank> b{};
  for (std::size_t i = 0; i < Rank; ++i) a[i][i] = ridge;
  for (const auto& [other_id, score] : observations) {
    const Factor<Rank>& f = other[other_id];
    for (std::size_t i = 0; i < Rank; ++i) {
      b[i] += f[i] * score;
      for (std::size_t j = 0; j < Rank; ++j) a[i][j] += f[i] * f[j];
    }
  }
  for (std::size_t col = 0; col < Rank; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < Rank; ++row)
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double d = a[col][col];
    for (std::size_t row = col + 1; row < Rank; ++row) {
      const double m = a[row][col] / d;
      for (std::size_t j = col; j < Rank; ++j) a[row][j] -= m * a[col][j];
      b[row] -= m * b[col];
    }
  }
  Factor<Rank> x{};
  for (std::size_t row = Rank; row-- > 0;) {
    double s = b[row];
    for (std::size_t j = row + 1; j < Rank; ++j) s -= a[row][j] * x[j];
    x[row] = s / a[row][row];
  }
  return x;
}

template <int Rank>
void expect_mirrored_solve_matches_full(std::uint64_t seed) {
  Rng rng(seed);
  FactorTable<Rank> others(64);
  for (auto& f : others)
    for (double& v : f) v = rng.normal();
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::pair<std::uint32_t, float>> obs;
    const auto count = rng.uniform_u64(40);
    for (std::uint64_t k = 0; k < count; ++k)
      obs.emplace_back(static_cast<std::uint32_t>(rng.uniform_u64(64)),
                       static_cast<float>(rng.uniform(1.0, 5.0)));
    const double ridge = rng.uniform(0.01, 2.0);
    const Factor<Rank> got = solve_ridge<Rank>(obs, others, ridge);
    const Factor<Rank> want = full_accumulation_solve<Rank>(obs, others, ridge);
    for (std::size_t i = 0; i < Rank; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "rank " << Rank << " trial " << trial << " coordinate " << i;
  }
}

TEST(Ridge, MirroredAccumulationMatchesFullAccumulationBitwise) {
  expect_mirrored_solve_matches_full<8>(5);
  expect_mirrored_solve_matches_full<3>(6);
  expect_mirrored_solve_matches_full<1>(7);
}

// The one-system solver as it was before the lane-generic elimination:
// branchy pivot search against the stored pivot, full-row swaps only when
// the pivot moves, and updates that include the eliminated column. Counts
// the solves that swapped at least once into `*swapped`.
template <int Rank>
Factor<Rank> reference_solve(const Observations& observations,
                             const FactorTable<Rank>& other, double ridge,
                             int* swapped = nullptr) {
  std::array<std::array<double, Rank>, Rank> a{};
  Factor<Rank> b{};
  for (std::size_t i = 0; i < Rank; ++i) a[i][i] = ridge;
  for (const auto& [other_id, score] : observations) {
    const Factor<Rank>& f = other[other_id];
    for (std::size_t i = 0; i < Rank; ++i) {
      b[i] += f[i] * score;
      for (std::size_t j = i; j < Rank; ++j) a[i][j] += f[i] * f[j];
    }
  }
  for (std::size_t i = 1; i < Rank; ++i)
    for (std::size_t j = 0; j < i; ++j) a[i][j] = a[j][i];
  bool any_swap = false;
  for (std::size_t col = 0; col < Rank; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < Rank; ++row)
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    if (pivot != col) {
      any_swap = true;
      std::swap(a[col], a[pivot]);
      std::swap(b[col], b[pivot]);
    }
    const double d = a[col][col];
    for (std::size_t row = col + 1; row < Rank; ++row) {
      const double m = a[row][col] / d;
      for (std::size_t j = col; j < Rank; ++j) a[row][j] -= m * a[col][j];
      b[row] -= m * b[col];
    }
  }
  Factor<Rank> x{};
  for (std::size_t row = Rank; row-- > 0;) {
    double s = b[row];
    for (std::size_t j = row + 1; j < Rank; ++j) s -= a[row][j] * x[j];
    x[row] = s / a[row][row];
  }
  if (swapped != nullptr && any_swap) ++*swapped;
  return x;
}

template <int Rank>
void expect_bitwise_equal(const Factor<Rank>& got, const Factor<Rank>& want,
                          const std::string& what) {
  for (std::size_t i = 0; i < Rank; ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " coordinate " << i;
}

/// Random ALS-shaped systems: 0-6 observations against factors drawn at
/// `scale`. Checks both lanes of every adjacent pair and the one-lane solve
/// against the reference; returns the share of solves that swapped.
template <int Rank>
double expect_lanes_match_reference(std::uint64_t seed, double scale) {
  Rng rng(seed);
  FactorTable<Rank> others(64);
  for (auto& f : others)
    for (double& v : f) v = scale * rng.normal();
  std::vector<Observations> systems(400);
  for (auto& obs : systems) {
    const auto count = rng.uniform_u64(7);
    for (std::uint64_t k = 0; k < count; ++k)
      obs.emplace_back(static_cast<std::uint32_t>(rng.uniform_u64(64)),
                       static_cast<float>(rng.uniform(1.0, 5.0)));
  }
  int swapped = 0;
  for (std::size_t i = 0; i + 1 < systems.size(); i += 2) {
    const auto pair = solve_ridge_lanes<Rank, 2>(
        {&systems[i], &systems[i + 1]}, others, 0.1);
    for (std::size_t l = 0; l < 2; ++l) {
      const std::string what = "rank " + std::to_string(Rank) + " scale " +
                               std::to_string(scale) + " system " +
                               std::to_string(i + l);
      const Factor<Rank> want =
          reference_solve<Rank>(systems[i + l], others, 0.1, &swapped);
      expect_bitwise_equal<Rank>(pair[l], want, what + " (two lanes)");
      expect_bitwise_equal<Rank>(
          solve_ridge<Rank>(systems[i + l], others, 0.1), want,
          what + " (one lane)");
    }
  }
  return static_cast<double>(swapped) / static_cast<double>(systems.size());
}

TEST(Ridge, LanesMatchSingleSolveBitwise) {
  // ALS's initial factor scale (0.1) keeps these normal matrices
  // ridge-dominated, so they never pivot; at 0.3 a minority of solves
  // swap, and unit factors make pivoting the rule.
  EXPECT_EQ(expect_lanes_match_reference<8>(11, 0.1), 0.0);
  const double rare = expect_lanes_match_reference<8>(12, 0.3);
  const double common = expect_lanes_match_reference<8>(13, 1.0);
  EXPECT_GT(rare, 0.05);
  EXPECT_LT(rare, 0.5);
  EXPECT_GT(common, 0.6);
  for (const double scale : {0.1, 0.3, 1.0}) {
    expect_lanes_match_reference<3>(14, scale);
    expect_lanes_match_reference<1>(15, scale);
  }

  // One lane swaps and its neighbour does not; then both lanes identical.
  FactorTable<3> others = {{{0.1, 0.0, 0.0}}, {{0.0, 3.0, 0.5}},
                           {{1.0, 2.0, 3.0}}};
  const Observations swaps = {{1, 4.0f}, {2, 1.5f}};
  const Observations stays = {{0, 2.0f}};
  int swapped = 0;
  const Factor<3> want_swaps = reference_solve<3>(swaps, others, 0.1, &swapped);
  ASSERT_EQ(swapped, 1);
  const Factor<3> want_stays = reference_solve<3>(stays, others, 0.1, &swapped);
  ASSERT_EQ(swapped, 1);
  using Pair = std::array<const Observations*, 2>;
  for (const Pair& lanes : {Pair{&swaps, &stays}, Pair{&stays, &swaps}}) {
    const auto got = solve_ridge_lanes<3, 2>(lanes, others, 0.1);
    for (std::size_t l = 0; l < 2; ++l)
      expect_bitwise_equal<3>(got[l],
                              lanes[l] == &swaps ? want_swaps : want_stays,
                              "mixed pair lane " + std::to_string(l));
  }
  const auto twins = solve_ridge_lanes<3, 2>({&swaps, &swaps}, others, 0.1);
  expect_bitwise_equal<3>(twins[0], want_swaps, "identical lanes, lane 0");
  expect_bitwise_equal<3>(twins[1], want_swaps, "identical lanes, lane 1");
}

TEST(Ridge, OddRowCountTakesTheOneLaneTail) {
  // An ALS partition of five entities: two lane pairs and a tail.
  Rng rng(21);
  FactorTable<8> others(32);
  for (auto& f : others)
    for (double& v : f) v = 0.1 * rng.normal();
  std::vector<std::pair<std::uint32_t, Observations>> rows;
  for (std::uint32_t id = 0; id < 5; ++id) {
    Observations obs;
    for (std::uint32_t k = 0; k <= id; ++k)
      obs.emplace_back(static_cast<std::uint32_t>(rng.uniform_u64(32)),
                       static_cast<float>(rng.uniform(1.0, 5.0)));
    rows.emplace_back(100 + id, std::move(obs));
  }
  const auto got = solve_ridge_rows<8>(rows, others, 0.1);
  ASSERT_EQ(got.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(got[i].first, rows[i].first);
    expect_bitwise_equal<8>(got[i].second,
                            reference_solve<8>(rows[i].second, others, 0.1),
                            "row " + std::to_string(i));
  }
  EXPECT_TRUE(solve_ridge_rows<8>({}, others, 0.1).empty());
}

// --- decision tree -------------------------------------------------------------

std::vector<LabeledPoint> separable_points(int n, float threshold) {
  // label = features[0] > threshold, feature 1 is noise.
  Rng rng(11);
  std::vector<LabeledPoint> out;
  for (int i = 0; i < n; ++i) {
    LabeledPoint p;
    p.features = {static_cast<float>(rng.uniform(-2, 2)),
                  static_cast<float>(rng.normal())};
    p.label = p.features[0] > threshold ? 1.0f : 0.0f;
    out.push_back(std::move(p));
  }
  return out;
}

TEST(DecisionTree, LearnsAxisAlignedSplit) {
  const auto data = separable_points(400, 0.3f);
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng rng(5);
  const Tree tree = grow_tree(data, idx, {0, 1}, TreeParams{}, rng);

  int correct = 0;
  for (const auto& p : data)
    correct += (tree_predict(tree, p.features) >= 0.5f) ==
                       (p.label >= 0.5f)
                   ? 1
                   : 0;
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.9);
  EXPECT_GE(tree.nodes[0].feature, 0);  // the root actually split
}

TEST(DecisionTree, PureLeafStopsGrowing) {
  std::vector<LabeledPoint> data(20);
  for (auto& p : data) {
    p.features = {1.0f};
    p.label = 1.0f;  // all positive -> pure
  }
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng rng(7);
  const Tree tree = grow_tree(data, idx, {0}, TreeParams{}, rng);
  EXPECT_EQ(tree.nodes[0].feature, -1);
  EXPECT_FLOAT_EQ(tree.nodes[0].leaf_value, 1.0f);
}

TEST(DecisionTree, RespectsDepthBound) {
  const auto data = separable_points(500, 0.0f);
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng rng(9);
  TreeParams params;
  params.max_depth = 1;
  const Tree tree = grow_tree(data, idx, {0, 1}, params, rng);
  ASSERT_EQ(tree.nodes.size(), 3u);  // 2^(1+1) - 1
  // Children of a depth-1 tree must be leaves.
  if (tree.nodes[0].feature >= 0) {
    EXPECT_EQ(tree.nodes[1].feature, -1);
    EXPECT_EQ(tree.nodes[2].feature, -1);
  }
}

TEST(DecisionTree, DeterministicGivenRngState) {
  const auto data = separable_points(100, 0.1f);
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng a(13), b(13);
  const Tree ta = grow_tree(data, idx, {0, 1}, TreeParams{}, a);
  const Tree tb = grow_tree(data, idx, {0, 1}, TreeParams{}, b);
  ASSERT_EQ(ta.nodes.size(), tb.nodes.size());
  for (std::size_t i = 0; i < ta.nodes.size(); ++i) {
    EXPECT_EQ(ta.nodes[i].feature, tb.nodes[i].feature);
    EXPECT_FLOAT_EQ(ta.nodes[i].threshold, tb.nodes[i].threshold);
  }
}

TEST(DecisionTree, SizerHooks) {
  Tree t;
  t.nodes.resize(7);
  EXPECT_DOUBLE_EQ(est_bytes(t), 16.0 + 12.0 * 7);
  EXPECT_DOUBLE_EQ(est_bytes(TreeNode{}), 12.0);
}

// --- interned words ---------------------------------------------------------------

// The engine must see a WordId exactly as it saw the canonical string
// "w<rank>": same partitioning hash, same estimated size, same sort order.
constexpr std::uint32_t kBayesVocabulary = 8000;

TEST(WordId, HashAndSizeMatchCanonicalString) {
  const spark::TsxHash<WordId> hash;
  for (std::uint32_t r = 0; r < kBayesVocabulary; ++r) {
    const std::string word = "w" + std::to_string(r);
    ASSERT_EQ(hash(WordId{r}), std::hash<std::string>{}(word)) << word;
    ASSERT_EQ(est_bytes(WordId{r}), spark::est_bytes(word)) << word;
  }
  // Past the precomputed table: the spelled string is hashed directly.
  for (const std::uint32_t r : {8191u, 8192u, 123456u, 4294967295u}) {
    const std::string word = "w" + std::to_string(r);
    EXPECT_EQ(hash(WordId{r}), std::hash<std::string>{}(word)) << word;
    EXPECT_EQ(est_bytes(WordId{r}), spark::est_bytes(word)) << word;
  }
}

TEST(WordId, OrderMatchesCanonicalStringOrder) {
  // Every rank of the position table [0, 8192), then ranks past its edge,
  // which take the digit-padding path alone and against table ranks.
  std::vector<std::uint32_t> ranks(8192);
  std::iota(ranks.begin(), ranks.end(), 0u);
  for (const std::uint32_t r : {8192u, 8193u, 8200u, 81919u, 81920u, 10000u,
                                100000u, 4294967295u, 429496729u})
    ranks.push_back(r);
  std::vector<std::string> words;
  for (const std::uint32_t r : ranks) words.push_back("w" + std::to_string(r));
  std::sort(ranks.begin(), ranks.end(), [](std::uint32_t a, std::uint32_t b) {
    return WordId{a} < WordId{b};
  });
  std::sort(words.begin(), words.end());
  for (std::size_t i = 0; i < ranks.size(); ++i)
    ASSERT_EQ("w" + std::to_string(ranks[i]), words[i]) << "position " << i;
  // Prefixes sort first; equality is rank identity.
  // Pairs straddling the table edge.
  EXPECT_TRUE(WordId{8191} < WordId{8192});
  EXPECT_TRUE(WordId{8192} < WordId{82});
  EXPECT_TRUE(WordId{8191} < WordId{81920});
  EXPECT_TRUE(WordId{819} < WordId{81920});
  EXPECT_TRUE(WordId{81920} < WordId{8193});
  EXPECT_TRUE(WordId{81920} > WordId{8191});
  EXPECT_TRUE(WordId{12} < WordId{120});
  EXPECT_TRUE(WordId{120} < WordId{13});
  EXPECT_FALSE(WordId{7} < WordId{7});
  EXPECT_EQ(WordId{7}, WordId{7});
  EXPECT_NE(WordId{7}, WordId{70});
}

TEST(WordId, PageSizeMatchesStringTokenFormula) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Page page;
    page.label = static_cast<int>(rng.uniform_u64(100));
    const std::uint64_t len = rng.uniform_u64(60);
    double strings = 4.0;  // label + 8-byte header and payload per word
    for (std::uint64_t t = 0; t < len; ++t) {
      const auto r = static_cast<std::uint32_t>(
          rng.uniform_u64(i % 2 == 0 ? kBayesVocabulary : 4294967296ULL));
      page.tokens.push_back(r);
      strings += 8.0 + static_cast<double>(("w" + std::to_string(r)).size());
    }
    ASSERT_EQ(est_bytes(page), strings) << "page " << i;
  }
}

// --- naive Bayes ------------------------------------------------------------------

using ClassWordCounts =
    std::vector<std::pair<std::pair<int, WordId>, std::uint64_t>>;

TEST(NaiveBayes, ClassifiesSeparableVocabulary) {
  // Class 0 uses words 0/1, class 1 uses words 2/3.
  const ClassWordCounts counts = {{{0, WordId{0}}, 50},
                                  {{0, WordId{1}}, 50},
                                  {{1, WordId{2}}, 50},
                                  {{1, WordId{3}}, 50}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 10}, {1, 10}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 20, 4);
  EXPECT_EQ(classify(model, {0, 1, 0}), 0);
  EXPECT_EQ(classify(model, {2, 3}), 1);
}

TEST(NaiveBayes, PriorsBreakTies) {
  // Symmetric likelihoods; class 1 has 9x the documents.
  const ClassWordCounts counts = {{{0, WordId{0}}, 10}, {{1, WordId{0}}, 10}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 1}, {1, 9}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 10, 1);
  EXPECT_EQ(classify(model, {0}), 1);
}

TEST(NaiveBayes, EqualScoresPickLowestClass) {
  // Identical priors and likelihoods for all three classes.
  const ClassWordCounts counts = {
      {{0, WordId{1}}, 4}, {{1, WordId{1}}, 4}, {{2, WordId{1}}, 4}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 2}, {1, 2}, {2, 2}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 3, 6, 2);
  EXPECT_EQ(classify(model, {1, 0, 1}), 0);
  EXPECT_EQ(classify(model, {}), 0);
}

TEST(NaiveBayes, SmoothingHandlesUnseenWords) {
  const ClassWordCounts counts = {{{0, WordId{0}}, 100}, {{1, WordId{1}}, 100}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 5}, {1, 5}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 10, 3);
  // Word 2 was never seen: likelihoods are smoothed, not -inf;
  // classification still works through the informative token.
  EXPECT_EQ(classify(model, {2, 0}), 0);
  for (int c = 0; c < 2; ++c)
    EXPECT_TRUE(std::isfinite(model.likelihood(c, 2)));
}

// Class-major reference: one class at a time, its prior and then its
// token likelihoods in document order; the strict > keeps the lower class.
std::vector<double> class_major_scores(const NaiveBayesModel& model,
                                       const std::vector<std::uint32_t>& doc) {
  std::vector<double> scores;
  for (int c = 0; c < model.classes(); ++c) {
    double score = model.log_prior[static_cast<std::size_t>(c)];
    for (const std::uint32_t t : doc) score += model.likelihood(c, t);
    scores.push_back(score);
  }
  return scores;
}

int class_major_argmax(const std::vector<double>& scores) {
  int best = 0;
  double best_score = -1e300;
  for (std::size_t c = 0; c < scores.size(); ++c)
    if (scores[c] > best_score) {
      best_score = scores[c];
      best = static_cast<int>(c);
    }
  return best;
}

TEST(NaiveBayes, WordMajorScoresMatchClassMajorReferenceBitwise) {
  // Seven classes over 300 words; classes 5 and 6 copy classes 1 and 2
  // exactly (counts and priors), so their scores tie bit for bit and the
  // lower class must win.
  constexpr int kClasses = 7;
  constexpr std::uint32_t kVocab = 300;
  Rng rng(41);
  ClassWordCounts counts;
  std::vector<std::pair<int, std::uint64_t>> docs;
  for (int c = 0; c < 5; ++c) {
    const std::uint64_t n_docs = c == 1 ? 60 : 10 + rng.uniform_u64(10);
    docs.emplace_back(c, n_docs);
    if (c == 1 || c == 2) docs.emplace_back(c + 4, n_docs);
    for (std::uint32_t w = 0; w < kVocab; ++w) {
      if (!rng.bernoulli(0.3)) continue;
      const std::uint64_t n = 1 + rng.uniform_u64(50);
      counts.push_back({{c, WordId{w}}, n});
      if (c == 1 || c == 2) counts.push_back({{c + 4, WordId{w}}, n});
    }
  }
  std::size_t documents = 0;
  for (const auto& [c, n] : docs) documents += n;
  const NaiveBayesModel model =
      build_naive_bayes(counts, docs, kClasses, documents, kVocab);

  int ties = 0;
  for (int d = 0; d < 2000; ++d) {
    std::vector<std::uint32_t> doc(rng.uniform_u64(80));
    for (auto& t : doc)
      t = static_cast<std::uint32_t>(rng.uniform_u64(kVocab));
    const std::vector<double> got = log_scores(model, doc);
    const std::vector<double> want = class_major_scores(model, doc);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[c]),
                std::bit_cast<std::uint64_t>(want[c]))
          << "doc " << d << " class " << c;
    const int best = class_major_argmax(want);
    EXPECT_EQ(classify(model, doc), best) << "doc " << d;
    if (best == 1 || best == 2) ++ties;  // tied with its copy, 5 or 6
  }
  EXPECT_GT(ties, 0);
}

TEST(NaiveBayes, RejectsDegenerateDimensions) {
  EXPECT_THROW(build_naive_bayes({}, {}, 0, 10, 5), tsx::Error);
  EXPECT_THROW(build_naive_bayes({}, {}, 2, 0, 5), tsx::Error);
  const ClassWordCounts bad = {{{0, WordId{9}}, 1}};
  EXPECT_THROW(build_naive_bayes(bad, {}, 1, 1, 5), tsx::Error);
  const ClassWordCounts bad_class = {{{3, WordId{0}}, 1}};
  EXPECT_THROW(build_naive_bayes(bad_class, {}, 2, 1, 5), tsx::Error);
}

TEST(NaiveBayes, ClassifyRejectsOutOfVocabularyRank) {
  const ClassWordCounts counts = {{{0, WordId{0}}, 3}, {{1, WordId{3}}, 3}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 1}, {1, 1}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 2, 4);
  EXPECT_EQ(classify(model, {3}), 1);
  EXPECT_THROW(classify(model, {99}), tsx::Error);
  EXPECT_THROW(classify(model, {0, 4}), tsx::Error);
}

}  // namespace
}  // namespace tsx::workloads::ml
