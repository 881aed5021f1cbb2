// Tenant advisor: how much scheduling weight does a latency-sensitive
// tenant need to hit its SLO on a shared machine?
//
// Models the multi-tenant setting the service layer arbitrates: a victim
// application colocated with a configurable number of seeded aggressor
// jobs streaming through the same DRAM node. For each candidate weight it
// drains the mix under fair share and reports the victim's start delay,
// execution slowdown (channel interference), and end-to-end completion
// versus running alone — then recommends the smallest weight whose
// completion slowdown meets the SLO. Everything derives from the seed, so
// re-running prints the identical table.
//
// Usage: tenant_advisor [--app=pagerank] [--scale=small] [--noisy=3]
//                       [--slo=1.5] [--seed=42] [--mode=fair_share|fifo]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "runner/result_cache.hpp"
#include "service/service.hpp"
#include "workloads/runner.hpp"

namespace {

const char* arg_value(int argc, char** argv, const char* name,
                      const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return argv[i] + prefix.size();
  return fallback;
}

std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsx;
  using namespace tsx::workloads;

  const App app = app_from_name(arg_value(argc, argv, "app", "pagerank"));
  const ScaleId scale =
      scale_from_label(arg_value(argc, argv, "scale", "small"));
  const int noisy_jobs =
      parse_int(arg_value(argc, argv, "noisy", "3"), "--noisy", 0, 1000);
  const double slo =
      parse_double(arg_value(argc, argv, "slo", "1.5"), "--slo", 0.0, 1e9);
  const std::uint64_t seed =
      parse_u64(arg_value(argc, argv, "seed", "42"), "--seed");
  const std::string mode_name =
      arg_value(argc, argv, "mode", "fair_share");
  const service::ArbitrationMode mode =
      mode_name == "fifo" ? service::ArbitrationMode::kFifo
                          : service::ArbitrationMode::kFairShare;

  RunConfig victim_cfg;
  victim_cfg.app = app;
  victim_cfg.scale = scale;
  victim_cfg.tier = mem::TierId::kTier2;  // contend where bandwidth is scarce
  victim_cfg.executors = 1;
  victim_cfg.cores_per_executor = 10;

  // The victim alone — the SLO is expressed against this.
  runner::ResultCache cache;
  const auto drain_with_weight = [&](double weight,
                                     bool with_noise) -> service::JobOutcome {
    service::ServiceConfig sc;
    sc.seed = seed;
    sc.mode = mode;
    sc.per_core_stream_gbps = 0.1;
    sc.cache = &cache;
    service::Service svc(sc);
    svc.add_tenant({.name = "noisy"});
    svc.add_tenant({.name = "victim", .weight = weight});
    if (with_noise) {
      std::uint64_t state = seed;
      for (int i = 0; i < noisy_jobs; ++i) {
        service::JobSpec spec;
        spec.config.app = kAllApps[mix(state) % kAllApps.size()];
        spec.config.scale = scale;
        spec.config.tier = mem::TierId::kTier2;
        spec.config.executors = 1;
        spec.config.cores_per_executor = 15;
        if (!svc.submit("noisy", spec).admitted) {
          std::fprintf(stderr, "aggressor rejected at admission\n");
          std::exit(1);
        }
      }
    }
    service::JobSpec vic;
    vic.config = victim_cfg;
    if (!svc.submit("victim", vic).admitted) {
      std::fprintf(stderr, "victim rejected at admission\n");
      std::exit(1);
    }
    const service::ServiceReport report = svc.drain();
    for (const service::JobOutcome& job : report.jobs)
      if (job.tenant == "victim") return job;
    std::fprintf(stderr, "victim missing from report\n");
    std::exit(1);
  };

  const service::JobOutcome alone = drain_with_weight(1.0, false);
  const double alone_done = alone.finished_s;

  std::printf("tenant advisor: victim %s/%s vs %d seeded aggressors, %s\n"
              "arbitration, SLO %.2fx of the alone completion (%.3f s)\n\n",
              to_string(app).c_str(), to_string(scale).c_str(), noisy_jobs,
              service::to_string(mode).c_str(), slo, alone_done);

  TablePrinter table({"weight", "start (s)", "exec (s)", "done (s)",
                      "slowdown", "bg GB/s", "meets SLO"});
  const std::vector<double> weights = {1.0, 2.0, 4.0, 8.0};
  double best = 0.0;
  for (const double w : weights) {
    const service::JobOutcome v = drain_with_weight(w, true);
    const double slowdown = v.finished_s / alone_done;
    const bool ok = slowdown <= slo;
    if (ok && best == 0.0) best = w;
    table.add_row({strfmt("%.0f", w), TablePrinter::num(v.started_s, 3),
                   TablePrinter::num(v.result.exec_time.sec(), 3),
                   TablePrinter::num(v.finished_s, 3),
                   TablePrinter::num(slowdown, 3) + "x",
                   TablePrinter::num(v.background_gbps, 2),
                   ok ? "yes" : "no"});
  }
  table.print(std::cout);

  if (best > 0.0)
    std::printf("\nadvice: weight %.0f is the smallest meeting the %.2fx "
                "SLO under %s arbitration.\n",
                best, slo, service::to_string(mode).c_str());
  else
    std::printf("\nadvice: no candidate weight meets the %.2fx SLO — move "
                "the aggressors to another node or lower "
                "per-core background load.\n",
                slo);
  return 0;
}
