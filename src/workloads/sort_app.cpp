// HiBench `sort`: globally sort random text records (Table II: 32 KB /
// 320 MB / 3.2 GB of ~100-byte lines). The job is the classic TeraSort
// shape — read from DFS, sortByKey with a sampled range partitioner (one
// sampling job + one full shuffle), write back to DFS.
//
// Two execution paths share the shape: the row path (an RDD of 100-byte
// FixedText lines, split into 10-byte keys and 90-byte payloads and
// sort_by_key'd; the engine charges and orders them as the std::string
// records they model, DESIGN.md §17) and, when the run enables columnar
// execution, a vectorized port that scans the identical generated lines
// into string-column chunks and total-orders them through the query
// layer's range-partitioned sort exchange. Both end in the same DFS file
// and the same self-check.
#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "columnar/query.hpp"
#include "columnar/runtime.hpp"
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

// Self-check shared by both paths: output must be globally ordered by the
// key prefix and complete. Lines stream out of the DFS file; only the
// previous line's key is kept.
void check_sort_output(spark::SparkContext& sc, std::size_t sample_lines,
                       AppOutcome& outcome) {
  std::size_t lines = 0;
  bool ordered = true;
  std::string prev_key;
  sc.dfs().for_each_line("/out/sort", [&](std::string_view line) {
    const std::string_view key = line.substr(0, kSortKeyWidth);
    if (lines++ > 0 && std::string_view(prev_key) > key) ordered = false;
    prev_key.assign(key);
  });
  const bool complete = lines >= sample_lines;
  outcome.valid = ordered && complete;
  outcome.validation = strfmt("%zu lines, ordered=%d complete=%d", lines,
                              ordered ? 1 : 0, complete ? 1 : 0);
}

AppOutcome run_sort_columnar(columnar::Runtime& rt, spark::SparkContext& sc,
                             std::size_t sample_lines,
                             std::size_t input_parts) {
  columnar::ScanSpec spec;
  spec.label = "sortInput";
  spec.partitions = input_parts;
  spec.charge_input_io = true;
  const auto batch_rows = static_cast<std::size_t>(rt.config().batch_rows);
  spec.generate = [sample_lines, input_parts, batch_rows](std::size_t p,
                                                          Rng& rng) {
    const std::size_t lo = p * sample_lines / input_parts;
    const std::size_t hi = (p + 1) * sample_lines / input_parts;
    // Identical line data to the row path's generate_rdd: same rng stream,
    // same per-partition slice, each line drawn straight into its column.
    const std::size_t rows = hi - lo;
    std::vector<columnar::Chunk> chunks;
    chunks.reserve(rows / batch_rows + 1);
    char line[kLineWidth];
    for (std::size_t at = 0; at < rows; at += batch_rows) {
      const std::size_t n = std::min(batch_rows, rows - at);
      columnar::StrBuilder lines;
      lines.reserve(n, n * kLineWidth);
      for (std::size_t i = 0; i < n; ++i) {
        random_line_into(rng, line, kSortKeyWidth, kLineWidth);
        lines.append(std::string_view(line, kLineWidth));
      }
      columnar::Chunk chunk;
      chunk.rows = n;
      chunk.cols.push_back(lines.seal());
      chunks.push_back(std::move(chunk));
    }
    return chunks;
  };

  auto query =
      columnar::Query::scan(std::move(spec))
          .sort_by_bytes(0, kSortKeyWidth)
          .sink("saveText",
                [&sc](std::size_t, const std::vector<columnar::Chunk>& chunks,
                      columnar::KernelCtx& kc) {
                  // The row path's save_as_text_file task bill: serialize
                  // the lines (one newline each), stream them off the heap,
                  // one seek plus a sequential write.
                  double text = 0.0;
                  for (const columnar::Chunk& c : chunks)
                    if (!c.cols.empty())
                      text += static_cast<double>(c.cols[0].bytes.size()) +
                              static_cast<double>(c.rows);
                  const Bytes bytes = Bytes::of(text);
                  kc.task.charge_cpu_ns(
                      text * kc.task.costs().serialize_cpu_ns_per_byte);
                  kc.task.charge_stream_read(bytes);
                  const dfs::IoCharge wr = sc.dfs().write_charge(bytes);
                  kc.task.charge_io(wr.seek);
                  kc.task.charge_disk_write(wr.disk);
                });

  columnar::QueryResult qr = columnar::execute(rt, query, "sort");

  // Driver-side write, like save_as_text_file: one buffer of lines per
  // partition, in partition order; rows within a partition are already
  // sorted.
  std::vector<std::string> parts;
  parts.reserve(qr.partitions.size());
  for (const std::vector<columnar::Chunk>& part : qr.partitions) {
    std::string text;
    for (const columnar::Chunk& c : part)
      for (std::size_t r = 0; r < c.rows; ++r) {
        text += c.cols[0].str(r);
        text += '\n';
      }
    parts.push_back(std::move(text));
  }
  sc.dfs().write_parts("/out/sort", std::move(parts));

  AppOutcome outcome;
  outcome.jobs.push_back(qr.jobs.back());
  check_sort_output(sc, sample_lines, outcome);
  return outcome;
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

  if (columnar::Runtime* rt = columnar::Runtime::of(sc))
    return run_sort_columnar(*rt, sc, sample_lines, input_parts);

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

  check_sort_output(sc, sample_lines, outcome);
  return outcome;
}

}  // namespace tsx::workloads
