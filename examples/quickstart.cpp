// Quickstart: word count on two memory tiers.
//
// Demonstrates the core API end to end: build a simulated machine, start a
// Spark-like context bound to a memory tier, run a real RDD pipeline
// (flatMap -> reduceByKey -> collect), and read the instruments — execution
// time, per-node traffic, NVDIMM counters and DIMM energy. Run it twice,
// once on local DRAM (Tier 0) and once on the NVM tier (Tier 2), and the
// paper's headline effect appears: same answer, slower and more
// energy-hungry on the persistent-memory tier.
//
// Usage: quickstart [--lines=20000] [--seed=42]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "dfs/dfs.hpp"
#include "mem/energy.hpp"
#include "mem/machine.hpp"
#include "metrics/nvdimm.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/datagen.hpp"

namespace {

struct TierRun {
  std::string tier;
  tsx::Duration time;
  std::size_t distinct_words = 0;
  std::uint64_t top_count = 0;
  tsx::Energy bound_energy;
  std::uint64_t nvm_media_ops = 0;
};

TierRun run_wordcount(tsx::mem::TierId tier, std::size_t lines,
                      std::uint64_t seed) {
  using namespace tsx;
  using namespace tsx::spark;

  // 1. A fresh simulated testbed: 2-socket Xeon, DRAM + asymmetric Optane.
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  dfs::Dfs dfs;

  // 2. A Spark context bound (numactl-style) to the requested memory tier.
  SparkConf conf;
  conf.mem_bind = tier;
  SparkContext sc(machine, dfs, conf, seed);

  // 3. A real pipeline on generated text.
  auto text = generate_rdd<std::string>(
      sc, "textInput", 8, [lines](std::size_t p, Rng& rng) {
        const ZipfSampler vocabulary(5000, 1.1);
        std::vector<std::string> out;
        for (std::size_t i = 0; i < lines / 8; ++i) {
          std::vector<std::string> words =
              workloads::random_document(rng, vocabulary, 12);
          out.push_back(join(words, " "));
        }
        (void)p;
        return out;
      });

  using WordOne = std::pair<std::string, std::uint64_t>;
  auto words = flat_map_rdd<WordOne>(
      text, [](const std::string& line, std::vector<WordOne>& out) {
        for (auto& w : split_ws(line)) out.emplace_back(std::move(w), 1ULL);
      });
  auto counts = reduce_by_key(
      words, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  const auto result = collect(counts);

  // 4. Read the instruments.
  TierRun run;
  run.tier = mem::to_string(tier);
  run.time = simulator.now();
  run.distinct_words = result.size();
  for (const auto& [w, n] : result)
    run.top_count = std::max(run.top_count, n);

  const mem::TierSpec bound = sc.bound_tier();
  const mem::EnergyModel energy;
  run.bound_energy = energy
                         .report(machine.topology().node(bound.node),
                                 machine.traffic().node(bound.node),
                                 simulator.now())
                         .per_dimm;
  run.nvm_media_ops = metrics::nvdimm_totals(machine).total_media_ops();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  tsx::Config cli;
  cli.parse_args(argc, argv);
  const auto lines = static_cast<std::size_t>(
      cli.get_int_in_or("lines", 20000, 1, 10000000));
  const std::uint64_t seed = tsx::parse_u64(cli.get_or("seed", "42"), "--seed");

  std::printf("tieredspark quickstart: word count, %zu lines\n\n", lines);

  tsx::TablePrinter table({"tier", "exec time", "distinct words",
                           "energy/DIMM", "NVM media ops"});
  for (const tsx::mem::TierId tier :
       {tsx::mem::TierId::kTier0, tsx::mem::TierId::kTier2}) {
    const TierRun run = run_wordcount(tier, lines, seed);
    table.add_row({run.tier, tsx::to_string(run.time),
                   std::to_string(run.distinct_words),
                   tsx::to_string(run.bound_energy),
                   std::to_string(run.nvm_media_ops)});
  }
  table.print(std::cout);
  return 0;
}
