#include "fault/controller.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"

namespace tsx::fault {

namespace {
// Churn-poll period. Fixed (not drawn) so enabling UCEs does not perturb
// the injection schedule of the other fault classes.
constexpr double kUcePollMs = 5.0;
}  // namespace

Controller::Controller(spark::SparkContext& sc, FaultConfig config)
    : sc_(sc),
      config_(config),
      plan_(build_plan(config, sc.job_seed(),
                       static_cast<int>(sc.executors().size()),
                       static_cast<int>(sc.dfs().cluster().size()))),
      clock_(sc.machine().simulator()) {
  TSX_CHECK(config_.enabled, "constructing a controller from a disabled "
                             "FaultConfig");
  // Structured knob validation replaces the old per-field ad-hoc checks;
  // the same validator runs at runner entry (RunConfig::validate).
  if (const auto issues = config_.validate(); !issues.empty())
    throw diagnostics_error("invalid FaultConfig", issues);
}

Controller::~Controller() {
  if (started_ && sc_.fault() == this) sc_.set_fault(nullptr);
}

void Controller::note(const char* category,
                      const std::function<std::string()>& message) {
  if (obs_ == nullptr) return;
  obs_->metrics().counter_add("fault_events", {{"category", category}});
  if (obs_->wants(category)) obs_->instant(message(), category, sc_.now());
}

void Controller::start() {
  TSX_CHECK(!started_, "fault controller started twice");
  started_ = true;
  sc_.set_fault(this);

  for (const PlannedCrash& crash : plan_.crashes) {
    const int executor = crash.executor;
    clock_.arm(crash.at, [this, executor] { inject_crash(executor); });
  }

  if (config_.offline_tier >= 0 && config_.offline_at_s >= 0.0) {
    const mem::TierId tier = mem::tier_from_index(config_.offline_tier);
    clock_.arm(Duration::seconds(config_.offline_at_s),
               [this, tier] { take_tier_offline(tier); });
  }

  if (config_.bw_collapse_at_s >= 0.0) {
    clock_.arm(Duration::seconds(config_.bw_collapse_at_s),
               [this] { collapse_bandwidth(); });
  }

  for (const PlannedDatanodeCrash& crash : plan_.datanode_crashes) {
    const int node = crash.node;
    clock_.arm(crash.at, [this, node] { crash_datanode(node); });
  }

  if (config_.rack_offline >= 0 && config_.rack_offline_at_s >= 0.0) {
    const int rack = config_.rack_offline;
    clock_.arm(Duration::seconds(config_.rack_offline_at_s),
               [this, rack] { take_rack_offline(rack); });
    if (config_.rack_recover_after_s >= 0.0)
      clock_.arm(Duration::seconds(config_.rack_offline_at_s +
                                   config_.rack_recover_after_s),
                 [this, rack] { recover_rack(rack); });
  }

  if (!plan_.uce_thresholds_gib.empty()) {
    // Watch the bound tier's node if it is NVM; otherwise the cache tier's
    // node (cached blocks may be NVM-bound even when the heap is not).
    const mem::TierSpec bound = sc_.bound_tier();
    if (bound.tech->kind == mem::TechKind::kNvm) {
      uce_node_ = bound.node;
    } else {
      const mem::TierSpec cache =
          sc_.machine().tier(sc_.conf().cpu_node_bind,
                             sc_.conf().tier_for(spark::StreamClass::kCache));
      if (cache.tech->kind == mem::TechKind::kNvm) uce_node_ = cache.node;
    }
    if (uce_node_ >= 0)
      clock_.arm_periodic(Duration::millis(kUcePollMs),
                          [this] { return poll_uce(); });
  }
}

mem::TierId Controller::effective_tier(mem::TierId tier, Bytes volume) {
  if (!offline_[static_cast<std::size_t>(mem::index(tier))]) return tier;
  ++stats_.rerouted_requests;
  stats_.rerouted_bytes += volume;
  return fallback_for(tier);
}

bool Controller::tier_online(mem::TierId tier) const {
  return !offline_[static_cast<std::size_t>(mem::index(tier))];
}

double Controller::straggle_factor(int stage_id, std::size_t partition,
                                   int attempt) {
  // Only a task's first launch can straggle (the slow JVM is a property of
  // the launch, not the partition): retries and speculative duplicates run
  // healthy, which is what makes speculation profitable.
  if (config_.straggler_prob <= 0.0 || attempt > 0) return 1.0;
  std::uint64_t mix = sc_.job_seed() ^ config_.salt ^
                      (static_cast<std::uint64_t>(stage_id) << 32) ^
                      static_cast<std::uint64_t>(partition) ^
                      0x57a661e4d4a44ULL;
  Rng rng(splitmix64(mix));
  if (!rng.bernoulli(config_.straggler_prob)) return 1.0;
  ++stats_.stragglers;
  note("fault.inject", [&] {
    return strfmt("straggler stage=%d part=%zu x%.1f", stage_id, partition,
                  config_.straggler_factor);
  });
  return config_.straggler_factor;
}

void Controller::on_task_failure(int stage_id, std::size_t partition,
                                 int attempt) {
  ++stats_.task_failures;
  note("fault.recover", [&] {
    return strfmt("task-failed stage=%d part=%zu attempt=%d", stage_id,
                  partition, attempt);
  });
}

void Controller::on_retry(int stage_id, std::size_t partition,
                          Duration backoff) {
  ++stats_.retries;
  stats_.backoff_wait_seconds += backoff.sec();
  note("fault.recover", [&] {
    return strfmt("retry stage=%d part=%zu backoff=%s", stage_id, partition,
                  tsx::to_string(backoff).c_str());
  });
}

void Controller::on_speculative_launch(int stage_id, std::size_t partition,
                                       int attempt) {
  ++stats_.speculative_launches;
  note("fault.recover", [&] {
    return strfmt("speculate stage=%d part=%zu attempt=%d", stage_id,
                  partition, attempt);
  });
}

void Controller::on_speculative_win(int stage_id, std::size_t partition,
                                    int attempt) {
  ++stats_.speculative_wins;
  note("fault.recover", [&] {
    return strfmt("speculation-won stage=%d part=%zu attempt=%d", stage_id,
                  partition, attempt);
  });
}

void Controller::on_recomputed_map_task(int shuffle_id,
                                        std::size_t map_part) {
  ++stats_.recomputed_map_tasks;
  note("fault.recover", [&] {
    return strfmt("recompute shuffle=%d map=%zu", shuffle_id, map_part);
  });
}

void Controller::inject_crash(int executor) {
  auto& executors = sc_.executors();
  spark::Executor& victim =
      *executors[static_cast<std::size_t>(executor) % executors.size()];
  ++stats_.crashes;
  note("fault.inject", [&] {
    return strfmt("crash executor=%d restart=%.1fs", victim.spec().id,
                  config_.restart_delay_s);
  });
  // The process dies: every cached block and shuffle map output it produced
  // is gone. Invalidate *before* failing the in-flight tasks so retries
  // observe the loss.
  const std::size_t blocks =
      sc_.block_manager().drop_owned_by(victim.spec().id);
  const std::size_t outputs =
      sc_.shuffle_store().invalidate_owned_by(victim.spec().id);
  stats_.lost_cache_blocks += blocks;
  stats_.lost_shuffle_outputs += outputs;
  if (blocks > 0 || outputs > 0)
    note("fault.recover", [&] {
      return strfmt("lost blocks=%zu map-outputs=%zu", blocks, outputs);
    });
  victim.crash(Duration::seconds(config_.restart_delay_s));
}

void Controller::take_tier_offline(mem::TierId tier) {
  const auto idx = static_cast<std::size_t>(mem::index(tier));
  if (offline_[idx]) return;
  offline_[idx] = true;
  ++stats_.tier_offline_events;
  const mem::TierSpec dead =
      sc_.machine().tier(sc_.conf().cpu_node_bind, tier);
  const mem::TierId fb = fallback_for(tier);
  note("fault.inject", [&] {
    return strfmt("tier-offline %s (node %d) -> fallback %s",
                  mem::to_string(tier).c_str(), dead.node,
                  mem::to_string(fb).c_str());
  });
  // Blocks cached on the dead node are gone; the block manager rebinds to
  // the fallback node and the lineage recomputes partitions on next use.
  spark::BlockManager& bm = sc_.block_manager();
  if (bm.node() == dead.node) {
    const std::size_t lost = bm.block_count();
    bm.clear();
    bm.set_node(sc_.machine().tier(sc_.conf().cpu_node_bind, fb).node);
    stats_.lost_cache_blocks += lost;
    if (lost > 0)
      note("fault.recover", [&] {
        return strfmt("dropped %zu cached blocks from node %d", lost,
                      dead.node);
      });
  }
}

void Controller::collapse_bandwidth() {
  const mem::TierSpec spec =
      sc_.machine().tier(sc_.conf().cpu_node_bind, sc_.conf().mem_bind);
  sim::FluidChannel& channel = sc_.machine().channel(spec.node);
  const Bandwidth saved = channel.capacity();
  channel.set_capacity(saved * config_.bw_collapse_factor);
  ++stats_.bw_collapses;
  note("fault.inject", [&] {
    return strfmt("bw-collapse %s x%.2f for %.1fs", channel.name().c_str(),
                  config_.bw_collapse_factor,
                  config_.bw_collapse_duration_s);
  });
  sim::FluidChannel* restore = &channel;
  clock_.arm(sc_.now() + Duration::seconds(config_.bw_collapse_duration_s),
             [this, restore, saved] {
               restore->set_capacity(saved);
               note("fault.inject", [&] {
                 return strfmt("bw-restore %s", restore->name().c_str());
               });
             });
}

bool Controller::poll_uce() {
  const double churn_gib =
      sc_.machine().traffic().node(uce_node_).write_bytes.b() /
      (1024.0 * 1024.0 * 1024.0);
  while (next_uce_ < plan_.uce_thresholds_gib.size() &&
         churn_gib >= plan_.uce_thresholds_gib[next_uce_]) {
    ++next_uce_;
    ++stats_.uce_events;
    note("fault.inject", [&] {
      return strfmt("uce node=%d churn=%.3fGiB", uce_node_, churn_gib);
    });
    // The error lands on a hot page: poison the least recently used cached
    // block if the cache lives on this node (otherwise it hit free or heap
    // memory and only the event is recorded).
    spark::BlockManager& bm = sc_.block_manager();
    if (bm.node() == uce_node_ && bm.drop_lru()) {
      ++stats_.lost_cache_blocks;
      note("fault.recover", [] {
        return std::string(
            "uce poisoned a cached block; lineage recomputes it");
      });
    }
  }
  return next_uce_ < plan_.uce_thresholds_gib.size();
}

void Controller::crash_datanode(int node) {
  dfs::Dfs& fs = sc_.dfs();
  if (node < 0 || node >= static_cast<int>(fs.cluster().size())) return;
  if (!fs.cluster().online(node)) return;
  fs.fail_datanode(node);
  note("fault.inject", [&] {
    return strfmt("datanode-crash node=%d rack=%d degraded=%.3f", node,
                  fs.cluster().rack_of(node), fs.degraded_fraction());
  });
  run_repair_wave();
}

void Controller::take_rack_offline(int rack) {
  dfs::Dfs& fs = sc_.dfs();
  if (rack < 0 || rack >= fs.cluster().racks()) return;
  fs.fail_rack(rack);
  note("fault.inject", [&] {
    return strfmt("rack-offline rack=%d degraded=%.3f", rack,
                  fs.degraded_fraction());
  });
  run_repair_wave();
}

void Controller::recover_rack(int rack) {
  dfs::Dfs& fs = sc_.dfs();
  if (rack < 0 || rack >= fs.cluster().racks()) return;
  fs.recover_rack(rack);
  note("fault.recover", [&] {
    return strfmt("rack-recover rack=%d degraded=%.3f", rack,
                  fs.degraded_fraction());
  });
}

void Controller::run_repair_wave() {
  dfs::Dfs& fs = sc_.dfs();
  const dfs::RepairSchedule schedule = fs.plan_repair();
  if (schedule.empty()) return;
  fs.note_repair_wave();
  note("fault.recover", [&] {
    return strfmt("dfs-repair wave: %zu chunks, %.1f MiB to read",
                  schedule.tasks.size(),
                  schedule.total_read.b() / 1048576.0);
  });
  auto wave = std::make_shared<RepairWave>();
  wave->tasks = schedule.tasks;
  wave->wave_start = sc_.now();
  wave->task_start = sc_.now();
  if (obs_ != nullptr) {
    wave->span = obs_->open(obs::SpanKind::kMigration, "dfs.repair",
                            "dfs.repair", sc_.now());
    if (wave->span != 0) {
      obs_->set_arg(wave->span, "chunks",
                    std::to_string(wave->tasks.size()));
      obs_->set_arg(wave->span, "read_bytes",
                    strfmt("%.0f", schedule.total_read.b()));
    }
  }
  launch_repair(wave);
}

void Controller::launch_repair(const std::shared_ptr<RepairWave>& wave) {
  if (wave->next >= wave->tasks.size()) {
    finish_repair_wave(wave);
    return;
  }
  const dfs::RepairTask& task = wave->tasks[wave->next];
  sim::FluidChannel& channel = sc_.machine().storage_channel();
  wave->task_start = sc_.now();
  // Zero-length chunks (empty files) still repair; give the flow a token
  // volume so the channel completes it.
  const Bytes volume =
      std::max(task.read_bytes + task.write_bytes, Bytes::of(1.0));
  channel.start_flow(volume, channel.capacity(), [this, wave] {
    const dfs::RepairTask& done = wave->tasks[wave->next];
    dfs::Dfs& fs = sc_.dfs();
    const double seconds = (sc_.now() - wave->task_start).sec();
    if (fs.apply_repair(done)) {
      fs.note_repair_traffic(done.read_bytes, done.write_bytes, seconds);
      note("fault.recover", [&] {
        return strfmt("dfs-repaired %s stripe=%zu chunk=%d -> node %d",
                      done.path.c_str(), done.stripe, done.chunk_index,
                      done.target);
      });
    }
    ++wave->next;
    launch_repair(wave);
  });
}

void Controller::finish_repair_wave(const std::shared_ptr<RepairWave>& wave) {
  note("fault.recover", [&] {
    return strfmt("dfs-repair wave done in %.3fs",
                  (sc_.now() - wave->wave_start).sec());
  });
  if (obs_ != nullptr && wave->span != 0)
    obs_->close_with_attribution(wave->span, sc_.now(),
                                 obs::TimeAttribution{}, obs::Bucket::kDisk);
}

mem::TierId Controller::fallback_for(mem::TierId dead) const {
  // Preference order: the sibling capacity tier first (an NVM group fails
  // over to the other socket's group), then DRAM nearest-first.
  static constexpr int kPrefs[4][3] = {
      {1, 2, 3},  // Tier 0 (local DRAM) dead
      {0, 2, 3},  // Tier 1 (remote DRAM) dead
      {3, 0, 1},  // Tier 2 (4-DIMM NVM) dead
      {2, 0, 1},  // Tier 3 (2-DIMM NVM) dead
  };
  for (const int candidate : kPrefs[mem::index(dead)]) {
    if (!offline_[static_cast<std::size_t>(candidate)])
      return mem::tier_from_index(candidate);
  }
  TSX_FAIL("every memory tier is offline");
}

}  // namespace tsx::fault
