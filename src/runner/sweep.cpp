#include "runner/sweep.hpp"

#include "core/error.hpp"

namespace tsx::runner {

SweepSpec& SweepSpec::apps(std::vector<workloads::App> v) {
  TSX_CHECK(!v.empty(), "apps axis must be non-empty");
  apps_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::all_apps() {
  apps_.assign(workloads::kAllApps.begin(), workloads::kAllApps.end());
  return *this;
}

SweepSpec& SweepSpec::scales(std::vector<workloads::ScaleId> v) {
  TSX_CHECK(!v.empty(), "scales axis must be non-empty");
  scales_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::all_scales() {
  scales_.assign(workloads::kAllScales.begin(), workloads::kAllScales.end());
  return *this;
}

SweepSpec& SweepSpec::tiers(std::vector<mem::TierId> v) {
  TSX_CHECK(!v.empty(), "tiers axis must be non-empty");
  tiers_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::all_tiers() {
  tiers_.assign(mem::kAllTiers.begin(), mem::kAllTiers.end());
  return *this;
}

SweepSpec& SweepSpec::deployments(std::vector<Deployment> v) {
  TSX_CHECK(!v.empty(), "deployments axis must be non-empty");
  deployments_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::mba_levels(std::vector<int> v) {
  TSX_CHECK(!v.empty(), "mba axis must be non-empty");
  mba_levels_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::machines(std::vector<workloads::MachineVariant> v) {
  TSX_CHECK(!v.empty(), "machines axis must be non-empty");
  machines_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::background_loads(std::vector<double> v) {
  TSX_CHECK(!v.empty(), "background-load axis must be non-empty");
  background_loads_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::zero_copy(std::vector<bool> v) {
  TSX_CHECK(!v.empty(), "zero-copy axis must be non-empty");
  zero_copy_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::tiering_policies(std::vector<tiering::PolicyKind> v) {
  TSX_CHECK(!v.empty(), "tiering-policy axis must be non-empty");
  tiering_policies_ = std::move(v);
  return *this;
}

SweepSpec& SweepSpec::all_tiering_policies() {
  tiering_policies_.assign(tiering::kAllPolicies.begin(),
                           tiering::kAllPolicies.end());
  return *this;
}

SweepSpec& SweepSpec::tiering(tiering::TieringConfig base) {
  tiering_ = base;
  return *this;
}

SweepSpec& SweepSpec::fault(fault::FaultConfig config) {
  fault_ = config;
  return *this;
}

SweepSpec& SweepSpec::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

SweepSpec& SweepSpec::repeats(int n) {
  TSX_CHECK(n >= 1, "need at least one repeat");
  repeats_ = n;
  return *this;
}

std::size_t SweepSpec::size() const {
  return apps_.size() * scales_.size() * tiers_.size() * deployments_.size() *
         mba_levels_.size() * machines_.size() * background_loads_.size() *
         zero_copy_.size() * tiering_policies_.size() *
         static_cast<std::size_t>(repeats_);
}

std::vector<workloads::RunConfig> SweepSpec::enumerate() const {
  std::vector<workloads::RunConfig> configs;
  configs.reserve(size());
  for (const workloads::App app : apps_) {
    for (const workloads::ScaleId scale : scales_) {
      for (const mem::TierId tier : tiers_) {
        for (const Deployment& dep : deployments_) {
          for (const int mba : mba_levels_) {
            for (const workloads::MachineVariant machine : machines_) {
              for (const double gbps : background_loads_) {
                for (const bool zc : zero_copy_) {
                  for (const tiering::PolicyKind policy : tiering_policies_) {
                    for (int r = 0; r < repeats_; ++r) {
                      workloads::RunConfig cfg;
                      cfg.app = app;
                      cfg.scale = scale;
                      cfg.tier = tier;
                      cfg.executors = dep.executors;
                      cfg.cores_per_executor = dep.cores_per_executor;
                      cfg.mba_percent = mba;
                      cfg.machine = machine;
                      cfg.background_load_gbps = gbps;
                      cfg.zero_copy_shuffle = zc;
                      cfg.tiering = tiering_;
                      cfg.tiering.policy = policy;
                      cfg.fault = fault_;
                      // Seed derived at enumeration time, from the repeat
                      // index only — independent of execution order.
                      cfg.seed = seed_ + static_cast<std::uint64_t>(r) *
                                             0x9e3779b9ULL;
                      configs.push_back(cfg);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return configs;
}

std::map<WorkloadKey, std::vector<const workloads::RunResult*>>
group_by_workload(const std::vector<workloads::RunResult>& runs) {
  std::map<WorkloadKey, std::vector<const workloads::RunResult*>> groups;
  for (const workloads::RunResult& r : runs)
    groups[{r.config.app, r.config.scale}].push_back(&r);
  return groups;
}

}  // namespace tsx::runner
