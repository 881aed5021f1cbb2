#include "workloads/runner.hpp"

#include <algorithm>
#include <atomic>

#include "core/config.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/thread_budget.hpp"
#include "core/strings.hpp"
#include "dfs/dfs.hpp"
#include "mem/background_load.hpp"
#include "mem/machine.hpp"
#include "mem/mba.hpp"
#include "sim/simulator.hpp"
#include "fault/controller.hpp"
#include "spark/context.hpp"
#include "spark/dataset_memo.hpp"
#include "tiering/engine.hpp"

namespace tsx::workloads {

std::string to_string(MachineVariant variant) {
  return variant == MachineVariant::kDramNvm ? "dram+nvm" : "dram+cxl";
}

std::string RunConfig::describe() const {
  return strfmt("%s-%s %s %de x %dc mba=%d%% seed=%llu",
                to_string(app).c_str(), to_string(scale).c_str(),
                mem::to_string(tier).c_str(), executors, cores_per_executor,
                mba_percent,
                static_cast<unsigned long long>(seed));
}

spark::PlacementSpec RunConfig::placement() const {
  spark::PlacementSpec spec;
  spec.heap(tier);
  if (shuffle_tier) spec.shuffle_on(*shuffle_tier);
  if (cache_tier) spec.cache_on(*cache_tier);
  return spec;
}

RunConfig& RunConfig::set_placement(const spark::PlacementSpec& spec) {
  tier = spec.mem_bind;
  shuffle_tier = spec.shuffle_bind;
  cache_tier = spec.cache_bind;
  return *this;
}

MachineVariant machine_from_index(int i) {
  TSX_CHECK(i >= 0 && i <= 1, "machine index out of range");
  return static_cast<MachineVariant>(i);
}

namespace {

using OptionalTier = std::optional<mem::TierId>;

/// Field values as the hash and canonical key spell them: decimal
/// integers, %.17g doubles, booleans as 1/0, "none" for an unset override.
struct FieldText {
  std::vector<std::pair<std::string, std::string>>& out;

  /// `codec` is an enum's `from_index`, which spelling does not need.
  template <typename T, typename... Codec>
  void operator()(const char* name, const T& v, Codec...) {
    if constexpr (std::is_same_v<T, bool>)
      out.emplace_back(name, v ? "1" : "0");
    else if constexpr (std::is_enum_v<T>)
      out.emplace_back(name, std::to_string(static_cast<int>(v)));
    else if constexpr (std::is_same_v<T, double>)
      out.emplace_back(name, json::number(v));
    else if constexpr (std::is_same_v<T, std::string>)
      out.emplace_back(name, v);
    else if constexpr (std::is_same_v<T, OptionalTier>)
      out.emplace_back(name, v ? std::to_string(mem::index(*v)) : "none");
    else
      out.emplace_back(name, std::to_string(v));
  }
};

/// `fields` sorted by name and joined as "name=value;...".
std::string sorted_join(
    std::vector<std::pair<std::string, std::string>> fields) {
  std::sort(fields.begin(), fields.end());
  std::string key;
  for (const auto& [name, value] : fields)
    key += name + '=' + value + ';';
  return key;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> config_fields(
    const RunConfig& config) {
  std::vector<std::pair<std::string, std::string>> fields;
  fields.reserve(72);
  visit_config(config, FieldText{fields});
  return fields;
}

std::string canonical_key(const RunConfig& config) {
  return sorted_join(config_fields(config));
}

std::string dataset_group_key(const RunConfig& config) {
  RunConfig group = config;
  group.tier = mem::TierId::kTier0;
  return canonical_key(group);
}

std::uint64_t hash_fields(
    std::vector<std::pair<std::string, std::string>> fields) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, 64-bit
  for (const char c : sorted_join(std::move(fields))) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t stable_hash(const RunConfig& config) {
  return hash_fields(config_fields(config));
}

std::vector<Diagnostic> RunConfig::validate() const {
  std::vector<Diagnostic> issues;
  const auto bad = [&issues](const std::string& field,
                             const std::string& message) {
    issues.push_back({field, message});
  };

  const mem::TopologySpec topo = machine == MachineVariant::kDramCxl
                                     ? mem::cxl_topology()
                                     : mem::testbed_topology();
  if (executors < 1) bad("executors", "need at least one executor");
  if (cores_per_executor < 1)
    bad("cores_per_executor", "each executor needs at least one core");
  if (socket < 0 || socket >= topo.sockets)
    bad("socket", strfmt("cpunodebind socket must lie in [0, %d)",
                         topo.sockets));
  if (mba_percent < 1 || mba_percent > 100)
    bad("mba_percent", "MBA throttle is a percentage in [1, 100]");
  if (!(background_load_gbps >= 0.0))
    bad("background_load_gbps", "background traffic cannot be negative");

  // Over-capacity bind: the cached-block budget this deployment implies
  // (run_workload deploys SparkConf's default heap and storage fraction)
  // must fit the cache tier's backing node, or the bind could never be
  // honored on the real machine.
  if (executors >= 1 && socket >= 0 && socket < topo.sockets) {
    const spark::SparkConf defaults;
    const double storage_budget_b = defaults.executor_memory.b() *
                                    defaults.storage_fraction *
                                    static_cast<double>(executors);
    const mem::TierId cache_bind = placement().tier_for(
        spark::StreamClass::kCache);
    const mem::TierSpec spec = mem::resolve_tier(topo, socket, cache_bind);
    const double capacity_b = topo.node(spec.node).capacity.b();
    if (storage_budget_b > capacity_b)
      bad("cache_tier",
          strfmt("cached-block budget %.1f GiB (executors x heap x storage "
                 "fraction) exceeds the %.1f GiB capacity of node %s",
                 storage_budget_b / (1024.0 * 1024.0 * 1024.0),
                 capacity_b / (1024.0 * 1024.0 * 1024.0),
                 topo.node(spec.node).name.c_str()));
  }

  // The tiering knobs only steer a run under a dynamic policy; a static
  // config carries them inert.
  if (tiering.policy != tiering::PolicyKind::kStatic) {
    for (const Diagnostic& d : tiering.validate())
      issues.push_back({"tiering." + d.field, d.message});
    if (fault.enabled && fault.offline_tier == 0)
      bad("fault.offline_tier",
          "dynamic tiering promotes into tier 0, which this fault plan "
          "takes offline; degrade the capacity tier instead or run the "
          "static policy");
  }
  if (fault.enabled) {
    for (const Diagnostic& d : fault.validate())
      issues.push_back({"fault." + d.field, d.message});
  }
  for (const Diagnostic& d : dfs.validate())
    issues.push_back({"dfs." + d.field, d.message});
  if (fault.enabled) {
    // Storage faults need a cluster that can lose a failure domain and
    // still serve: more than one datanode and some redundancy.
    const bool storage_faults = fault.storage_faults();
    if (storage_faults && dfs.total_nodes() < 2)
      bad("dfs.nodes_per_rack",
          "storage faults need a cluster of at least two datanodes");
    if (storage_faults && dfs.codec == dfs::CodecKind::kReplication &&
        dfs.replication < 2)
      bad("dfs.replication",
          "storage faults need redundancy: replication >= 2 or the RS "
          "codec");
    if (fault.datanode_crashes >= dfs.total_nodes() &&
        fault.datanode_crashes > 0)
      bad("fault.datanode_crashes",
          "cannot crash every datanode — nothing would survive to repair "
          "from");
    if (fault.rack_offline >= dfs.racks)
      bad("fault.rack_offline", "rack index exceeds the dfs topology");
    if (fault.rack_offline >= 0 && dfs.racks < 2)
      bad("dfs.racks", "a rack partition needs at least two racks");
  }
  for (const Diagnostic& d : obs.validate())
    issues.push_back({"obs." + d.field, d.message});
  return issues;
}

void validate_or_throw(const RunConfig& config) {
  if (const auto issues = config.validate(); !issues.empty())
    throw diagnostics_error("invalid RunConfig (" + config.describe() + ")",
                            issues);
}

Energy RunResult::bound_node_energy_per_dimm() const {
  const auto idx = static_cast<std::size_t>(bound_node);
  return idx < energy.size() ? energy[idx].report.per_dimm : Energy::zero();
}

namespace {
std::atomic<std::uint64_t> g_runs_executed{0};
}  // namespace

std::uint64_t runs_executed() {
  return g_runs_executed.load(std::memory_order_relaxed);
}

RunResult failed_result(const RunConfig& config, const std::string& error) {
  RunResult result;
  result.config = config;
  result.failed = true;
  result.valid = false;
  result.error = error;
  result.validation = "run failed: " + error;
  return result;
}

RunResult run_workload(const RunConfig& config, double wall_budget_seconds) {
  validate_or_throw(config);
  g_runs_executed.fetch_add(1, std::memory_order_relaxed);
  sim::Simulator simulator;
  if (wall_budget_seconds > 0.0)
    simulator.set_wall_budget(wall_budget_seconds);
  mem::MachineModel machine(simulator,
                            config.machine == MachineVariant::kDramCxl
                                ? mem::cxl_topology()
                                : mem::testbed_topology());
  dfs::Dfs dfs(config.dfs, config.seed);
  // Register the workload's nominal input dataset (Sec. III sizing) as a
  // provisioned DFS file, so storage-fault drills have real chunks to
  // lose, reconstruct and repair. Placement is a pure function of (seed,
  // path); under the default single-node config this is inert.
  const double nominal_input_b = config.scale == ScaleId::kLarge ? 3.2e9
                                 : config.scale == ScaleId::kSmall
                                     ? 3.2e8
                                     : 32768.0;
  dfs.provision("/in/" + to_string(config.app), Bytes::of(nominal_input_b));

  spark::SparkConf conf;
  conf.executor_instances = config.executors;
  conf.cores_per_executor = config.cores_per_executor;
  conf.cpu_node_bind = config.socket;
  conf.set_placement(config.placement());
  conf.zero_copy_shuffle = config.zero_copy_shuffle;

  // TSX_TASK_THREADS enables the intra-run parallel data plane (DESIGN.md
  // §11). Deliberately NOT part of RunConfig: results are bit-identical for
  // every thread count, so the knob must never reach the stable hash or the
  // ResultCache key. The budget clamp keeps nested sweep x task parallelism
  // from oversubscribing; with no sweep active the request is honored as
  // given. Garbage is rejected loudly rather than run serial.
  if (const auto want = env_int("TSX_TASK_THREADS", 0, 1024); want && *want > 1)
    conf.intra_run_threads = ThreadBudget::global().grant_inner(*want);

  spark::SparkContext sc(machine, dfs, conf, config.seed);

  // One dataset slot per runner thread (DESIGN.md §19): a sweep's tier
  // group runs back to back on one thread, so the slot serves its later
  // tiers from the partitions an earlier tier generated. Pool workers reach
  // it through the context. A run that is not kept holds an action's
  // partitions only until a shuffle-map task takes them, and drops the rest
  // when it ends.
  thread_local spark::DatasetMemo memo;
  const spark::DatasetMemo::Run memo_run(memo, dataset_group_key(config));
  sc.set_dataset_memo(&memo);

  // Observability plane: the recorder exists only when enabled, so an
  // obs-off run is the pre-obs path bit for bit (every hook site sees a
  // null recorder / zero span id). The category filter comes from the
  // config knob alone, so the exported trace is a function of RunConfig.
  std::shared_ptr<obs::Recorder> recorder;
  if (config.obs.enabled) {
    recorder = std::make_shared<obs::Recorder>();
    if (!config.obs.trace_filter.empty())
      recorder->set_filter(
          obs::CategoryFilter::parse(config.obs.trace_filter));
    sc.set_obs(recorder.get());
    dfs.set_obs(recorder.get(), &simulator);
    recorder->open_run(config.describe(), simulator.now());
  }

  // The engine exists only for dynamic policies: under `static` the run is
  // the pre-tiering code path bit for bit (no hooks, no epoch events).
  std::unique_ptr<tiering::Engine> engine;
  if (config.tiering.policy != tiering::PolicyKind::kStatic) {
    engine = std::make_unique<tiering::Engine>(sc, config.tiering);
    if (recorder) engine->set_obs(recorder.get());
    engine->start();
  }

  // Same contract for the fault plane: the controller exists only when
  // faults are enabled, so a fault-free run is the pre-fault path bit for
  // bit (no hooks, no in-flight registries, no injection events).
  std::unique_ptr<fault::Controller> faults;
  if (config.fault.enabled) {
    faults = std::make_unique<fault::Controller>(sc, config.fault);
    if (recorder) faults->set_obs(recorder.get());
    faults->start();
  }

  mem::MbaController mba(machine);
  if (config.mba_percent != 100)
    mba.set_throttle_percent(config.mba_percent);

  std::unique_ptr<mem::BackgroundLoad> neighbor;
  if (config.background_load_gbps > 0.0) {
    neighbor = std::make_unique<mem::BackgroundLoad>(
        machine, config.socket, config.tier,
        Bandwidth::gb_per_sec(config.background_load_gbps));
  }

  const AppOutcome outcome = run_app(config.app, sc, config.scale);
  if (neighbor) neighbor->stop();

  RunResult result;
  result.config = config;
  result.exec_time = simulator.now();
  result.valid = outcome.valid;
  result.validation = outcome.validation;
  // Lifetime scheduler totals cover *every* job the app triggered,
  // including internal ones (e.g. sortByKey's sampling pass), so they
  // always reconcile with the machine's traffic ledger.
  result.jobs = sc.scheduler().jobs_run();
  result.stages = static_cast<std::size_t>(sc.scheduler().stages_run());
  result.tasks = sc.scheduler().tasks_run();
  result.total_cost = sc.scheduler().lifetime_cost();

  const mem::TopologySpec& topo = machine.topology();
  for (std::size_t n = 0; n < topo.nodes.size(); ++n)
    result.traffic.push_back(
        machine.traffic().node(static_cast<mem::NodeId>(n)));

  result.nvdimm = metrics::nvdimm_totals(machine);

  const mem::EnergyModel energy_model;
  for (std::size_t n = 0; n < topo.nodes.size(); ++n) {
    NodeEnergyRow row;
    row.node = topo.nodes[n].name;
    row.kind = topo.nodes[n].tech->kind;
    row.dimms = topo.nodes[n].dimms;
    row.report = energy_model.report(
        topo.nodes[n], machine.traffic().node(static_cast<mem::NodeId>(n)),
        result.exec_time);
    result.energy.push_back(row);
  }

  const mem::TierSpec bound = machine.tier(config.socket, config.tier);
  result.bound_node = bound.node;
  if (bound.tech->kind == mem::TechKind::kNvm) {
    const mem::WearModel wear_model;
    result.wear = wear_model.report(topo.node(bound.node),
                                    machine.traffic().node(bound.node),
                                    result.exec_time);
  }

  if (engine) result.tiering = engine->stats();
  if (faults) result.fault = faults->stats();
  result.dfs = dfs.stats();
  result.host_execute_seconds = sc.scheduler().host_execute_seconds();
  if (recorder) {
    recorder->finalize(simulator.now());
    sc.set_obs(nullptr);
    dfs.set_obs(nullptr, nullptr);
    if (engine) engine->set_obs(nullptr);
    if (faults) faults->set_obs(nullptr);
    result.trace = recorder;
  }

  result.events = metrics::synthesize_events(
      result.total_cost, result.exec_time, result.tasks,
      config.seed ^ (static_cast<std::uint64_t>(config.app) << 8) ^
          (static_cast<std::uint64_t>(config.scale) << 16) ^
          (static_cast<std::uint64_t>(config.tier) << 24));
  return result;
}

std::vector<RunResult> run_repeats(RunConfig config, int repeats) {
  TSX_CHECK(repeats >= 1, "need at least one repeat");
  std::vector<RunResult> out;
  out.reserve(static_cast<std::size_t>(repeats));
  const std::uint64_t base_seed = config.seed;
  for (int r = 0; r < repeats; ++r) {
    config.seed = base_seed + static_cast<std::uint64_t>(r) * 0x9e3779b9ULL;
    out.push_back(run_workload(config));
  }
  return out;
}

}  // namespace tsx::workloads
