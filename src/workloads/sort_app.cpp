// HiBench `sort`: globally sort random text records (Table II: 32 KB /
// 320 MB / 3.2 GB of ~100-byte lines). The job is the classic TeraSort
// shape — read from DFS, sortByKey with a sampled range partitioner (one
// sampling job + one full shuffle), write back to DFS.
//
// Records are 100-byte FixedText lines, split into 10-byte keys and 90-byte
// payloads and sort_by_key'd; the engine charges and orders them as the
// std::string records they model (DESIGN.md §17).
#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/strings.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"

namespace tsx::workloads {

namespace {

constexpr std::size_t kLineWidth = 100;
constexpr std::size_t kSortKeyWidth = 10;
constexpr std::uint64_t kSampleCapBytes = 2 * 1024 * 1024;

using Line = FixedText<kLineWidth>;
using SortKey = FixedText<kSortKeyWidth>;
using SortPayload = FixedText<kLineWidth - kSortKeyWidth>;

std::uint64_t nominal_bytes(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return 32ULL * 1024;                   // 32 KB
    case ScaleId::kSmall: return 320ULL * 1024 * 1024;          // 320 MB
    case ScaleId::kLarge: return 3ULL * 1024 * 1024 * 1024 +
                                 200ULL * 1024 * 1024;          // 3.2 GB
  }
  return 0;
}

}  // namespace

AppOutcome run_sort(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;

  const SampledScale plan =
      SampledScale::plan(nominal_bytes(scale), kSampleCapBytes);
  sc.set_cost_multiplier(plan.multiplier);

  const std::size_t sample_lines = std::max<std::size_t>(
      plan.sample / kLineWidth, 8);
  // Input partitions reflect the *nominal* layout (one per 128 MiB block).
  const auto input_parts = std::max<std::size_t>(
      1, std::min<std::size_t>(
             64, plan.nominal / (128ULL * 1024 * 1024) + 1));

  auto lines = generate_rdd<Line>(
      sc, "sortInput", input_parts,
      [sample_lines, input_parts](std::size_t p, Rng& rng) {
        const std::size_t lo = p * sample_lines / input_parts;
        const std::size_t hi = (p + 1) * sample_lines / input_parts;
        std::vector<Line> out(hi - lo);
        for (Line& line : out)
          random_line_into(rng, line.data(), kSortKeyWidth, kLineWidth);
        return out;
      });

  auto keyed = map_rdd(
      std::move(lines),
      [](const Line& line) {
        return std::make_pair(SortKey::of(line.data()),
                              SortPayload::of(line.data() + kSortKeyWidth));
      },
      "keyByPrefix");

  auto sorted = sort_by_key(std::move(keyed));

  AppOutcome outcome;
  spark::JobMetrics save_metrics;
  save_as_text_file(
      sorted, "/out/sort",
      [](std::string& out, const std::pair<SortKey, SortPayload>& kv) {
        out += kv.first.view();
        out += kv.second.view();
      },
      &save_metrics);
  outcome.jobs.push_back(save_metrics);

  // Self-check: output must be globally ordered by the key prefix and
  // complete. Lines stream out of the DFS file; only the previous line's key
  // is kept.
  std::size_t out_lines = 0;
  bool ordered = true;
  std::string prev_key;
  sc.dfs().for_each_line("/out/sort", [&](std::string_view line) {
    const std::string_view key = line.substr(0, kSortKeyWidth);
    if (out_lines++ > 0 && std::string_view(prev_key) > key) ordered = false;
    prev_key.assign(key);
  });
  const bool complete = out_lines >= sample_lines;
  outcome.valid = ordered && complete;
  outcome.validation = strfmt("%zu lines, ordered=%d complete=%d", out_lines,
                              ordered ? 1 : 0, complete ? 1 : 0);
  return outcome;
}

}  // namespace tsx::workloads
