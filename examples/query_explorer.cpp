// Query explorer: the columnar engine end to end.
//
// Walks the tsx::columnar query layer the way DESIGN.md §13 describes it:
// build a simulated machine and a Spark context, attach a columnar Runtime,
// stage a dictionary-encoded dimension table in a batch store, then run a
// declarative plan — scan → filter → project → join → aggregate — and read
// everything the subsystem instruments: the rendered stage plan, the
// query's plan and exec lines (from its QueryResult), the result batches,
// and the per-kernel traffic ledger that itemizes tier bytes by operator
// family.
//
// Finally it reruns the two ported workloads (sort, pagerank) through
// run_workload with `columnar.enabled` flipped, showing the row-vs-columnar
// switch at the RunConfig level: identical validation strings, different
// execution profile.
//
// Usage: query_explorer [--rows=50000] [--trace]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "columnar/query.hpp"
#include "columnar/runtime.hpp"
#include "core/config.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "dfs/dfs.hpp"
#include "mem/machine.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace tsx;
using namespace tsx::columnar;

/// Rows per fact partition; the dimension table has one row per category.
constexpr int kCategories = 8;

Chunk dimension_chunk() {
  // Dimension table: category id -> discount factor + a dictionary-encoded
  // label column (kDict: per-row u32 codes into a shared blob).
  std::vector<std::int64_t> ids;
  std::vector<double> discount;
  DictBuilder labels(kCategories);
  const char* names[kCategories] = {"food",   "tools", "media", "games",
                                    "garden", "auto",  "toys",  "office"};
  for (int c = 0; c < kCategories; ++c) {
    ids.push_back(c);
    discount.push_back(1.0 - 0.05 * c);
    const bool ok = labels.append(names[c]);
    TSX_CHECK(ok, "dictionary sized for every category");
  }
  Chunk dim;
  dim.rows = kCategories;
  dim.cols.push_back(Column::make_i64(std::move(ids)));
  dim.cols.push_back(Column::make_f64(std::move(discount)));
  dim.cols.push_back(labels.seal());
  return dim;
}

}  // namespace

int main(int argc, char** argv) {
  Config cli;
  cli.parse_args(argc, argv);
  const auto rows =
      static_cast<std::size_t>(cli.get_int_in_or("rows", 50000, 1, 10000000));
  const bool dump_trace = cli.get_bool_or("trace", false);

  // 1. Simulated testbed + Spark context + columnar runtime.
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  dfs::Dfs dfs;
  spark::SparkConf conf;
  spark::SparkContext sc(machine, dfs, conf, /*seed=*/42);
  Runtime rt(sc, ColumnarConfig{.enabled = true});

  // 2. Stage the dimension table in a batch store. Store partitions
  //    register as migratable regions with the tiering hooks, and every
  //    in-task read streams through the cache channel class.
  const int dim_store = rt.create_store("explorer.dim");
  {
    std::vector<Chunk> chunks;
    chunks.push_back(dimension_chunk());
    rt.store_put(dim_store, 0, std::move(chunks));
  }

  // 3. A declarative plan over a generated fact table:
  //    sales(category, amount) -> keep amounts >= 10 -> apply 7% tax ->
  //    join the dimension discount -> discounted revenue per category.
  ScanSpec facts;
  facts.label = "sales";
  facts.partitions = 1;  // the dimension store has one partition to match
  facts.charge_input_io = false;
  facts.generate = [rows](std::size_t, Rng& rng) -> std::vector<Chunk> {
    std::vector<std::int64_t> category;
    std::vector<double> amount;
    category.reserve(rows);
    amount.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      category.push_back(
          static_cast<std::int64_t>(rng.uniform_u64(kCategories)));
      amount.push_back(1.0 + static_cast<double>(rng.uniform_u64(100)));
    }
    Chunk c;
    c.rows = rows;
    c.cols.push_back(Column::make_i64(std::move(category)));
    c.cols.push_back(Column::make_f64(std::move(amount)));
    return {c};
  };

  auto q = Query::scan(facts)
               .filter_f64(1, CmpOp::kGe, 10.0)
               .project_scale(1, 1.07, 0.0)
               .join_store(dim_store, /*probe_col=*/0, /*build_col=*/0,
                           "salesXdim")
               .transform("discounted",
                          [](std::size_t, std::vector<Chunk> chunks,
                             KernelCtx& kc) {
                            // amount(col 1) * discount(col 3) -> col 1.
                            for (Chunk& c : chunks) {
                              Column out = project_bin_f64(
                                  c.cols[1], c.cols[3], BinOp::kMul);
                              kc.charge(KernelKind::kProject,
                                        static_cast<double>(c.rows),
                                        static_cast<double>(c.rows), Bytes(),
                                        Bytes::of(out.byte_size()),
                                        spark::StreamClass::kHeap,
                                        static_cast<double>(c.rows) *
                                            kc.task.costs().map_cpu_ns);
                              c.cols[1] = std::move(out);
                            }
                            return chunks;
                          })
               .aggregate_sum(/*key_col=*/0, /*val_col=*/1, kCategories);

  std::printf("plan:\n%s\n", explain(q).c_str());

  QueryResult result = execute(rt, q, "revenue");

  // 4. The answer: discounted revenue per category, keys arrive sorted.
  const std::vector<Chunk>* dim = rt.store_find(dim_store, 0);
  TablePrinter table({"category", "label", "revenue"});
  for (const auto& part : result.partitions) {
    for (const Chunk& c : part) {
      for (std::size_t r = 0; r < c.rows; ++r) {
        const auto cat = static_cast<std::size_t>(c.cols[0].i64[r]);
        table.add_row({strfmt("%zu", cat),
                       std::string((*dim)[0].cols[2].str(cat)),
                       TablePrinter::num(c.cols[1].f64[r], 2)});
      }
    }
  }
  table.print(std::cout);

  // 5. What it cost: the per-kernel ledger decomposes tier traffic by
  //    operator family and stream class (the run report carries the same
  //    breakdown for full workloads).
  rt.finish();
  const ColumnarStats& stats = rt.stats();
  std::printf("\nqueries=%llu stages=%llu batches=%llu regions=%llu "
              "region_bytes=%.0f arena_leases=%llu arena_high_water=%.0f\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.stages_planned),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.regions),
              stats.region_bytes.b(),
              static_cast<unsigned long long>(stats.arena_leases),
              stats.arena_high_water.b());
  TablePrinter kernels(
      {"kernel", "stream", "calls", "rows in", "rows out", "read B",
       "written B"});
  for (int k = 0; k < kNumKernelKinds; ++k) {
    const KernelStats& ks = stats.kernels[static_cast<std::size_t>(k)];
    if (ks.invocations == 0) continue;
    const auto kind = static_cast<KernelKind>(k);
    kernels.add_row({to_string(kind), kernel_stream_label(kind),
                     strfmt("%llu", static_cast<unsigned long long>(
                                        ks.invocations)),
                     strfmt("%llu", static_cast<unsigned long long>(
                                        ks.rows_in)),
                     strfmt("%llu", static_cast<unsigned long long>(
                                        ks.rows_out)),
                     TablePrinter::num(ks.bytes_read.b(), 0),
                     TablePrinter::num(ks.bytes_written.b(), 0)});
  }
  kernels.print(std::cout);

  if (dump_trace) {
    std::printf("\nquery traces:\n");
    std::size_t stages = 0;
    for (std::size_t at = 0; at < result.plan.size(); ++stages) {
      const std::size_t eol = result.plan.find('\n', at);
      std::printf("  [query.plan] revenue: %s\n",
                  result.plan.substr(at, eol - at).c_str());
      at = eol + 1;
    }
    double sim_seconds = 0.0;
    std::size_t tasks = 0;
    for (const spark::JobMetrics& jm : result.jobs) {
      sim_seconds += jm.duration().sec();
      tasks += jm.num_tasks;
    }
    std::printf("  [query.exec] revenue: stages=%zu jobs=%zu tasks=%zu "
                "sim=%.6fs\n",
                stages, result.jobs.size(), tasks, sim_seconds);
  }

  // 6. The RunConfig-level switch: the ported workloads, row vs columnar.
  std::printf("\nported workloads, row vs columnar (small scale):\n");
  TablePrinter runs({"app", "row valid", "columnar valid",
                           "same answer", "columnar batches"});
  for (const workloads::App app :
       {workloads::App::kSort, workloads::App::kPagerank}) {
    workloads::RunConfig rc;
    rc.app = app;
    rc.scale = workloads::ScaleId::kSmall;
    const workloads::RunResult row = workloads::run_workload(rc);
    rc.columnar.enabled = true;
    const workloads::RunResult col = workloads::run_workload(rc);
    runs.add_row({workloads::to_string(app), row.valid ? "yes" : "NO",
                  col.valid ? "yes" : "NO",
                  row.validation == col.validation ? "yes" : "NO",
                  strfmt("%llu", static_cast<unsigned long long>(
                                     col.columnar.batches))});
  }
  runs.print(std::cout);
  return 0;
}
