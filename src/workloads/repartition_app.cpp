// HiBench `repartition`: pure shuffle microbenchmark (Table II: 3.2 KB /
// 3.2 MB / 32 MB). Records are round-robin keyed and redistributed across
// the default parallelism, then written back — all data crosses the wire
// exactly once.
#include <string>
#include <string_view>
#include <vector>

#include "spark/pair_rdd.hpp"
#include "core/strings.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"

namespace tsx::workloads {

namespace {

constexpr std::size_t kLineWidth = 100;
constexpr std::size_t kKeyWidth = 10;
constexpr std::uint64_t kSampleCapBytes = 2 * 1024 * 1024;

/// A ~100-byte line, carried inline (DESIGN.md §17).
using Line = FixedText<kLineWidth>;

std::uint64_t nominal_bytes(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return 3276;                      // 3.2 KB
    case ScaleId::kSmall: return 3355443;                  // 3.2 MB
    case ScaleId::kLarge: return 32ULL * 1024 * 1024;      // 32 MB
  }
  return 0;
}

}  // namespace

AppOutcome run_repartition(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;

  const SampledScale plan =
      SampledScale::plan(nominal_bytes(scale), kSampleCapBytes);
  sc.set_cost_multiplier(plan.multiplier);

  const std::size_t sample_lines =
      std::max<std::size_t>(plan.sample / kLineWidth, 8);
  const std::size_t input_parts =
      std::max<std::size_t>(1, std::min<std::size_t>(16, sample_lines / 4));

  auto lines = generate_rdd<Line>(
      sc, "repartitionInput", input_parts,
      [sample_lines, input_parts](std::size_t p, Rng& rng) {
        const std::size_t lo = p * sample_lines / input_parts;
        const std::size_t hi = (p + 1) * sample_lines / input_parts;
        std::vector<Line> out(hi - lo);
        for (Line& line : out)
          random_line_into(rng, line.data(), kKeyWidth, kLineWidth);
        return out;
      });

  auto spread = repartition(
      std::move(lines),
      static_cast<std::size_t>(sc.default_parallelism()));

  AppOutcome outcome;
  spark::JobMetrics save_metrics;
  save_as_text_file(
      spread, "/out/repartition",
      [](std::string& out, const Line& line) { out += line.view(); },
      &save_metrics);
  outcome.jobs.push_back(save_metrics);

  std::size_t out = 0;
  sc.dfs().for_each_line("/out/repartition",
                         [&out](std::string_view) { ++out; });
  outcome.valid = out == sample_lines;
  outcome.validation =
      strfmt("%zu lines in, %zu out across %d partitions", sample_lines, out,
             sc.default_parallelism());
  return outcome;
}

}  // namespace tsx::workloads
