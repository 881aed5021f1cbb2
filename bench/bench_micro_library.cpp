// google-benchmark microbenchmarks of the library's own hot paths: the DES
// event queue, fluid-channel resharing, the PRNG/distributions and the
// engine's shuffle-side hashing. These guard the simulator's wall-clock
// performance (a full Fig.-2 sweep is ~100 simulations and should stay in
// seconds).
#include <benchmark/benchmark.h>

#include "core/rng.hpp"
#include "sim/fluid_channel.hpp"
#include "sim/simulator.hpp"
#include "spark/sizer.hpp"
#include "stats/correlation.hpp"
#include "stats/quantiles.hpp"

namespace {

using namespace tsx;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < n; ++i)
      sim.schedule_in(Duration::micros(static_cast<double>(i % 97)), [] {});
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FluidChannelChurn(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FluidChannel ch(sim, "bench", Bandwidth::gb_per_sec(10));
    for (std::size_t i = 0; i < flows; ++i)
      ch.start_flow(Bytes::mib(static_cast<double>(1 + i % 7)),
                    Bandwidth::gb_per_sec(2), [] {});
    sim.run();
    benchmark::DoNotOptimize(ch.drained_total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) *
                          state.iterations());
}
BENCHMARK(BM_FluidChannelChurn)->Arg(8)->Arg(64)->Arg(256);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(3);
  const ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 1.1);
  for (auto _ : state) benchmark::DoNotOptimize(zipf(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_EstBytesRecords(benchmark::State& state) {
  std::vector<std::pair<std::string, std::uint64_t>> records;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i)
    records.emplace_back("key" + std::to_string(rng.uniform_u64(1000)),
                         rng.next_u64());
  for (auto _ : state)
    benchmark::DoNotOptimize(spark::est_bytes_all(records));
  state.SetItemsProcessed(1000 * state.iterations());
}
BENCHMARK(BM_EstBytesRecords);

void BM_PearsonCorrelation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.normal();
    y[i] = 0.5 * x[i] + rng.normal();
  }
  for (auto _ : state) benchmark::DoNotOptimize(stats::pearson(x, y));
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PearsonCorrelation)->Arg(100)->Arg(10000);

void BM_ViolinSummary(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> xs(1000);
  for (auto& v : xs) v = rng.normal(10, 2);
  for (auto _ : state) benchmark::DoNotOptimize(stats::violin(xs));
}
BENCHMARK(BM_ViolinSummary);

}  // namespace
