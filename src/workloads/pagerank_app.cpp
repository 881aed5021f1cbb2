// HiBench `pagerank`: iterative PageRank over a Zipf-skewed web graph
// (Table II: 50 / 5k / 500k pages). Classic RDD formulation: the adjacency
// list is cached; every iteration joins it with the current ranks, scatters
// contributions along edges and aggregates them with reduceByKey — three
// shuffles per iteration, which is what makes this the study's most
// shuffle-intensive workload.
//
// When the run enables columnar execution the same iteration runs through
// the query layer: the link table is hash-partitioned once and pinned as a
// columnar batch store, and each iteration is one query — scan the rank
// state, hash-join it against the store, expand contributions along edges,
// sum them through an aggregate exchange and apply the damping as a
// vectorized projection. Partitioning, per-key accumulation order and the
// damping arithmetic all mirror the row engine exactly, so the two paths
// produce bit-identical ranks.
#include <algorithm>
#include <cmath>
#include <memory>
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

constexpr int kIterations = 3;
constexpr double kDamping = 0.85;
constexpr std::uint64_t kSamplePageCap = 12000;
constexpr std::size_t kMeanDegree = 8;

std::uint64_t nominal_pages(ScaleId scale) {
  switch (scale) {
    case ScaleId::kTiny: return 50;
    case ScaleId::kSmall: return 5000;
    case ScaleId::kLarge: return 500000;
  }
  return 0;
}

// Validation shared by both paths: ranks positive; total mass near page
// count (dangling pages leak a little mass, so allow a tolerant lower
// bound); the Zipf-popular low-id pages must out-rank the median page.
void check_pagerank(std::uint32_t pages, std::size_t count, double total,
                    double max_rank, bool positive, AppOutcome& outcome) {
  const double mean_rank =
      count == 0 ? 0.0 : total / static_cast<double>(count);
  const bool mass_ok = total > 0.5 * static_cast<double>(pages) &&
                       total < 1.2 * static_cast<double>(pages);
  const bool skewed = max_rank > 2.0 * mean_rank;
  outcome.valid = positive && mass_ok && (pages < 100 || skewed);
  outcome.validation =
      strfmt("pages=%u totalMass=%.1f maxRank=%.2f meanRank=%.3f", pages,
             total, max_rank, mean_rank);
}

AppOutcome run_pagerank_columnar(columnar::Runtime& rt,
                                 spark::SparkContext& sc, std::uint32_t pages,
                                 std::size_t parts) {
  using spark::TsxHash;

  const auto P =
      static_cast<std::size_t>(sc.conf().effective_shuffle_partitions());
  // The partitioner every exchange uses — identical to the hash the row
  // path's join/reduceByKey apply to uint32 page ids, so each page lands in
  // the same reduce partition on both paths.
  const columnar::KeyPartitionFn by_page = [](std::int64_t key) {
    return static_cast<std::uint64_t>(
        TsxHash<std::uint32_t>{}(static_cast<std::uint32_t>(key)));
  };
  const auto batch_rows = static_cast<std::size_t>(rt.config().batch_rows);

  // Build the cached link table once: scan the identical generated graph
  // (same rng stream as the row path's webGraph), hash-partition it by page
  // and pin the result as a batch store — one kind-3 migratable region per
  // partition, re-read through the cache stream class every iteration.
  // Adjacency lists ride in a string column as packed little-endian u32s.
  columnar::ScanSpec graph;
  graph.label = "webGraph";
  graph.partitions = parts;
  graph.charge_input_io = true;
  // One link-target sampler per run, shared read-only by every partition.
  const auto targets = std::make_shared<const ZipfSampler>(pages, 0.9);
  graph.generate = [pages, parts, batch_rows, targets](std::size_t p,
                                                       Rng& rng) {
    const auto lo = static_cast<std::uint32_t>(p * pages / parts);
    const auto hi = static_cast<std::uint32_t>((p + 1) * pages / parts);
    const std::vector<AdjacencyRow> rows =
        random_graph_rows(rng, lo, hi - lo, pages, *targets, kMeanDegree);
    std::vector<columnar::Chunk> chunks;
    chunks.reserve(rows.size() / batch_rows + 1);
    for (std::size_t at = 0; at < rows.size(); at += batch_rows) {
      const std::size_t n = std::min(batch_rows, rows.size() - at);
      std::vector<std::int64_t> page_ids;
      page_ids.reserve(n);
      columnar::StrBuilder adjacency;
      adjacency.reserve(n, n * kMeanDegree * 4);
      std::string blob;
      for (std::size_t i = 0; i < n; ++i) {
        const AdjacencyRow& row = rows[at + i];
        page_ids.push_back(static_cast<std::int64_t>(row.first));
        blob.resize(row.second.size() * 4);
        for (std::size_t t = 0; t < row.second.size(); ++t) {
          const std::uint32_t v = row.second[t];
          blob[4 * t + 0] = static_cast<char>(v & 0xff);
          blob[4 * t + 1] = static_cast<char>(v >> 8 & 0xff);
          blob[4 * t + 2] = static_cast<char>(v >> 16 & 0xff);
          blob[4 * t + 3] = static_cast<char>(v >> 24 & 0xff);
        }
        adjacency.append(blob);
      }
      columnar::Chunk chunk;
      chunk.rows = n;
      chunk.cols.push_back(columnar::Column::make_i64(std::move(page_ids)));
      chunk.cols.push_back(adjacency.seal());
      chunks.push_back(std::move(chunk));
    }
    return chunks;
  };

  auto links_query =
      columnar::Query::scan(std::move(graph))
          .repartition_by_key(0, P, by_page, /*sort_by_key=*/true);
  columnar::QueryResult linksr =
      columnar::execute(rt, links_query, "pagerank.links");

  const int links = rt.create_store("pagerank.links");
  for (std::size_t r = 0; r < linksr.partitions.size(); ++r)
    rt.store_put(links, r, std::move(linksr.partitions[r]));

  // Driver-held rank state, partitioned like the shuffles and key-ascending
  // within each partition — the order the row engine's key-sorted reduce
  // output arrives in, which keeps every floating-point accumulation below
  // in the same order as the row path.
  struct RankState {
    std::vector<std::vector<std::int64_t>> pages;
    std::vector<std::vector<double>> ranks;
  };
  auto state = std::make_shared<RankState>();
  state->pages.resize(P);
  state->ranks.resize(P);
  for (std::uint32_t page = 0; page < pages; ++page) {
    const auto r = static_cast<std::size_t>(by_page(page) % P);
    state->pages[r].push_back(page);
    state->ranks[r].push_back(1.0);
  }

  columnar::Runtime* rtp = &rt;
  columnar::QueryResult qr;
  for (int iter = 0; iter < kIterations; ++iter) {
    columnar::ScanSpec ranks;
    ranks.label = strfmt("ranks.iter%d", iter);
    ranks.partitions = P;
    ranks.charge_input_io = false;
    ranks.generate = [state](std::size_t p, Rng&) {
      std::vector<columnar::Chunk> chunks;
      if (state->pages[p].empty()) return chunks;
      columnar::Chunk chunk;
      chunk.rows = state->pages[p].size();
      chunk.cols.push_back(columnar::Column::make_i64(state->pages[p]));
      chunk.cols.push_back(columnar::Column::make_f64(state->ranks[p]));
      chunks.push_back(std::move(chunk));
      return chunks;
    };

    auto q =
        columnar::Query::scan(std::move(ranks))
            .transform(
                "contributions",
                [rtp, links](std::size_t part,
                             std::vector<columnar::Chunk> chunks,
                             columnar::KernelCtx& kc) {
                  const spark::CostModel& c = kc.task.costs();
                  const std::vector<columnar::Chunk>& build_chunks =
                      rtp->store_read(links, part, kc.task, kc.delta);

                  std::vector<std::int64_t> bkeys;
                  std::vector<std::string_view> badj;
                  double build_bytes = 0.0;
                  for (const columnar::Chunk& ch : build_chunks) {
                    build_bytes += ch.byte_size().b();
                    for (std::size_t i = 0; i < ch.rows; ++i) {
                      bkeys.push_back(ch.cols[0].i64[i]);
                      badj.push_back(ch.cols[1].str(i));
                    }
                  }
                  std::vector<std::int64_t> pkeys;
                  std::vector<double> pranks;
                  double probe_bytes = 0.0;
                  for (const columnar::Chunk& ch : chunks) {
                    probe_bytes += ch.byte_size().b();
                    for (std::size_t i = 0; i < ch.rows; ++i) {
                      pkeys.push_back(ch.cols[0].i64[i]);
                      pranks.push_back(ch.cols[1].f64[i]);
                    }
                  }

                  const std::size_t bn = bkeys.size();
                  const std::size_t pn = pkeys.size();
                  const columnar::JoinResult jr = columnar::hash_join(
                      kc.arena, bkeys.data(), bn, pkeys.data(), pn);
                  kc.task.charge_dep_writes(static_cast<double>(bn) *
                                            c.hash_insert_dep_writes);
                  kc.task.charge_dep_reads(static_cast<double>(pn) *
                                           c.hash_probe_dep_reads);
                  kc.charge(columnar::KernelKind::kJoin,
                            static_cast<double>(bn + pn),
                            static_cast<double>(jr.size),
                            Bytes::of(build_bytes + probe_bytes), Bytes(),
                            spark::StreamClass::kHeap,
                            static_cast<double>(bn) * c.hash_cpu_ns +
                                static_cast<double>(pn) *
                                    (c.hash_cpu_ns + c.agg_cpu_ns));

                  // Expand each matched page's rank along its out-links —
                  // the row path's flat_map, probe order (key-ascending)
                  // then adjacency order.
                  std::vector<std::int64_t> contrib_targets;
                  std::vector<double> contrib_shares;
                  contrib_targets.reserve(jr.size * kMeanDegree);
                  contrib_shares.reserve(jr.size * kMeanDegree);
                  for (std::size_t i = 0; i < jr.size; ++i) {
                    const std::string_view blob = badj[jr.build_rows[i]];
                    const std::size_t degree = blob.size() / 4;
                    if (degree == 0) continue;
                    const double share = pranks[jr.probe_rows[i]] /
                                         static_cast<double>(degree);
                    for (std::size_t t = 0; t < degree; ++t) {
                      const auto* b = reinterpret_cast<const unsigned char*>(
                          blob.data() + 4 * t);
                      const std::uint32_t v =
                          static_cast<std::uint32_t>(b[0]) |
                          static_cast<std::uint32_t>(b[1]) << 8 |
                          static_cast<std::uint32_t>(b[2]) << 16 |
                          static_cast<std::uint32_t>(b[3]) << 24;
                      contrib_targets.push_back(
                          static_cast<std::int64_t>(v));
                      contrib_shares.push_back(share);
                    }
                  }

                  columnar::Chunk contrib;
                  contrib.rows = contrib_targets.size();
                  const auto out_rows =
                      static_cast<double>(contrib_targets.size());
                  contrib.cols.push_back(columnar::Column::make_i64(
                      std::move(contrib_targets)));
                  contrib.cols.push_back(
                      columnar::Column::make_f64(std::move(contrib_shares)));
                  kc.charge(columnar::KernelKind::kProject,
                            static_cast<double>(jr.size), out_rows, Bytes(),
                            contrib.byte_size(), spark::StreamClass::kHeap,
                            out_rows * c.map_cpu_ns);
                  std::vector<columnar::Chunk> out;
                  if (contrib.rows > 0) out.push_back(std::move(contrib));
                  return out;
                })
            .aggregate_sum(0, 1, P, by_page)
            // x*d + (1-d) is bit-identical to the row path's (1-d) + d*x:
            // same product, and IEEE addition commutes exactly.
            .project_scale(1, kDamping, 1.0 - kDamping);
    qr = columnar::execute(rt, q, strfmt("pagerank.iter%d", iter));

    auto next = std::make_shared<RankState>();
    next->pages.resize(P);
    next->ranks.resize(P);
    for (std::size_t r = 0; r < qr.partitions.size(); ++r)
      for (const columnar::Chunk& c : qr.partitions[r])
        for (std::size_t i = 0; i < c.rows; ++i) {
          next->pages[r].push_back(c.cols[0].i64[i]);
          next->ranks[r].push_back(c.cols[1].f64[i]);
        }
    state = std::move(next);
  }

  AppOutcome outcome;
  if (!qr.jobs.empty()) outcome.jobs.push_back(qr.jobs.back());

  // Fold in collect order: partition-ascending, key-ascending within.
  double total = 0.0;
  double max_rank = 0.0;
  bool positive = true;
  std::size_t count = 0;
  for (std::size_t r = 0; r < P; ++r)
    for (std::size_t i = 0; i < state->ranks[r].size(); ++i) {
      const double rank = state->ranks[r][i];
      total += rank;
      max_rank = std::max(max_rank, rank);
      if (rank <= 0.0) positive = false;
      ++count;
    }
  check_pagerank(pages, count, total, max_rank, positive, outcome);
  return outcome;
}

}  // namespace

AppOutcome run_pagerank(spark::SparkContext& sc, ScaleId scale) {
  using namespace tsx::spark;

  const SampledScale plan =
      SampledScale::plan(nominal_pages(scale), kSamplePageCap);
  sc.set_cost_multiplier(plan.multiplier);

  const auto pages = static_cast<std::uint32_t>(plan.sample);
  const std::size_t parts =
      std::max<std::size_t>(2, std::min<std::size_t>(16, pages / 64 + 1));

  if (columnar::Runtime* rt = columnar::Runtime::of(sc))
    return run_pagerank_columnar(*rt, sc, pages, parts);

  // One link-target sampler per run, shared read-only by every partition.
  const auto targets = std::make_shared<const ZipfSampler>(pages, 0.9);
  auto links = cache_rdd(generate_rdd<AdjacencyRow>(
      sc, "webGraph", parts, [pages, parts, targets](std::size_t p, Rng& rng) {
        const auto lo = static_cast<std::uint32_t>(p * pages / parts);
        const auto hi = static_cast<std::uint32_t>((p + 1) * pages / parts);
        return random_graph_rows(rng, lo, hi - lo, pages, *targets,
                                 kMeanDegree);
      }));

  auto ranks = map_rdd(
      links,
      [](const AdjacencyRow& row) { return std::make_pair(row.first, 1.0); },
      "initRanks");

  AppOutcome outcome;
  // Shuffle parallelism follows Spark's default (total cores): with many
  // skinny executors a small graph shatters into tiny tasks whose dispatch
  // and cross-executor fetches dominate — the Fig. 4 small-vs-large
  // asymmetry.
  for (int iter = 0; iter < kIterations; ++iter) {
    auto joined = join(links, ranks);
    auto contribs = flat_map_rdd<std::pair<std::uint32_t, double>>(
        std::move(joined),
        [](const std::pair<std::uint32_t,
                           std::pair<std::vector<std::uint32_t>, double>>& kv,
           std::vector<std::pair<std::uint32_t, double>>& out) {
          const auto& [neighbors, rank] = kv.second;
          const double share =
              neighbors.empty()
                  ? 0.0
                  : rank / static_cast<double>(neighbors.size());
          for (const std::uint32_t n : neighbors) out.emplace_back(n, share);
        },
        "contributions");
    auto summed = reduce_by_key(
        std::move(contribs), [](double a, double b) { return a + b; });
    ranks = map_values(std::move(summed), [](double x) {
      return (1.0 - kDamping) + kDamping * x;
    });
  }

  spark::JobMetrics jm;
  const auto final_ranks = collect(ranks, &jm);
  outcome.jobs.push_back(jm);

  double total = 0.0;
  double max_rank = 0.0;
  bool positive = true;
  for (const auto& [page, rank] : final_ranks) {
    total += rank;
    max_rank = std::max(max_rank, rank);
    if (rank <= 0.0) positive = false;
  }
  check_pagerank(pages, final_ranks.size(), total, max_rank, positive,
                 outcome);
  return outcome;
}

}  // namespace tsx::workloads
