#include "tiering/engine.hpp"

#include "core/error.hpp"
#include "core/strings.hpp"

namespace tsx::tiering {

Engine::Engine(spark::SparkContext& sc, TieringConfig config)
    : sc_(sc),
      config_(config),
      policy_(make_policy(config.policy)),
      cost_model_(sc.machine(), sc.conf().cpu_node_bind) {
  // Structured knob validation replaces the old ad-hoc epoch check; the
  // same validator runs at runner entry (RunConfig::validate).
  if (const auto issues = config.validate(); !issues.empty())
    throw diagnostics_error("invalid TieringConfig", issues);
}

Engine::~Engine() {
  if (sc_.tiering() == this) sc_.set_tiering(nullptr);
}

void Engine::start() {
  TSX_CHECK(!started_, "tiering engine already started");
  started_ = true;
  sc_.set_tiering(this);
  if (config_.policy == PolicyKind::kStatic) return;
  sc_.machine().simulator().schedule_in(Duration::millis(config_.epoch_ms),
                                        [this] { tick(); });
}

mem::TierId Engine::slow_tier() const {
  const mem::TierId bound = sc_.conf().mem_bind;
  return bound != mem::TierId::kTier0 ? bound : mem::TierId::kTier2;
}

void Engine::on_region_put(spark::StreamClass cls, spark::RegionId id,
                           Bytes bytes) {
  tracker_.put(cls, id, bytes, sc_.conf().tier_for(cls));
}

void Engine::on_region_access(spark::StreamClass, spark::RegionId id,
                              Bytes bytes, mem::AccessKind) {
  tracker_.access(id, bytes);
}

void Engine::on_region_drop(spark::StreamClass, spark::RegionId id) {
  tracker_.drop(id);
}

std::vector<spark::TierShare> Engine::traffic_split(
    spark::StreamClass cls) const {
  // Heap traffic is not region-backed (it is the executor's working set,
  // pinned by numactl); only cache and shuffle regions migrate.
  if (cls == spark::StreamClass::kHeap) return {};
  if (config_.policy == PolicyKind::kStatic) return {};
  const std::array<double, 4> weights = tracker_.class_tier_weights(cls);
  double total = 0.0;
  for (const double w : weights) total += w;
  if (total <= 0.0) return {};
  std::vector<spark::TierShare> split;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    split.push_back(
        {mem::tier_from_index(static_cast<int>(i)), weights[i] / total});
  }
  return split;
}

void Engine::tick() {
  sim::Simulator& sim = sc_.machine().simulator();

  // 1. Age hotness across the epoch boundary.
  tracker_.roll_epoch();
  ++stats_.epochs;

  // 2. Plan against a deterministic snapshot and execute.
  PlanContext ctx;
  ctx.regions = tracker_.snapshot();
  ctx.fast = fast_tier();
  ctx.slow = slow_tier();
  // The multiplier is read at tick time: apps set it after the context is
  // built, and region sizes are tracked at host-sample scale.
  ctx.multiplier = sc_.cost_multiplier();
  ctx.fast_capacity = Bytes::gib(config_.fast_capacity_gib);
  Bytes used = Bytes::zero();
  for (const Region& r : ctx.regions)
    if (r.tier == ctx.fast) used += r.size * ctx.multiplier;
  ctx.fast_used = used;

  for (const Move& move : policy_->plan(ctx)) launch_move(move);

  // 3. Recurring tick. The scheduler drives the simulator by step()/
  //    run_until, so a pending tick never stalls run completion; ticks
  //    beyond the workload's end are simply never fired.
  sim.schedule_in(Duration::millis(config_.epoch_ms), [this] { tick(); });
}

void Engine::launch_move(const Move& move) {
  Region* region = tracker_.find(move.region);
  // The plan was made against a snapshot; skip moves that went stale
  // (region dropped, already migrating, or already moved).
  if (region == nullptr || region->migrating || region->tier != move.from)
    return;
  // A fault observer may have taken a tier's node offline; migrations
  // touching a dead tier are dropped (the fallback remap handles traffic).
  if (spark::FaultHooks* fault = sc_.fault()) {
    if (!fault->tier_online(move.from) || !fault->tier_online(move.to))
      return;
  }

  const bool promote = mem::index(move.to) < mem::index(move.from);
  if (promote) {
    ++stats_.promotions;
    stats_.bytes_promoted += move.bytes;
  } else {
    ++stats_.demotions;
    stats_.bytes_demoted += move.bytes;
  }
  const MigrationEstimate estimate =
      cost_model_.estimate(move.from, move.to, move.bytes);
  stats_.nvm_bytes_written += estimate.nvm_bytes_written;
  stats_.nvm_write_energy += estimate.nvm_write_energy;

  // Flip placement at launch: new traffic targets the destination right
  // away while the copy drains in the background.
  tracker_.set_tier(move.region, move.to);
  tracker_.set_migrating(move.region, true);

  const sim::TimePoint started = sc_.now();
  const spark::RegionId id = move.region;
  obs::SpanId span = 0;
  if (obs_ != nullptr) {
    span = obs_->open_migration(
        strfmt("%s:%016llx", promote ? "promote" : "demote",
               static_cast<unsigned long long>(move.region)),
        promote ? "tiering.promote" : "tiering.demote", started);
    obs_->set_arg(span, "from", mem::to_string(move.from));
    obs_->set_arg(span, "to", mem::to_string(move.to));
    obs_->set_arg(span, "bytes", strfmt("%.0f", move.bytes.b()));
    obs_->metrics().counter_add(
        promote ? "tiering_promotions" : "tiering_demotions",
        {{"to", mem::to_string(move.to)}});
  }
  if (migrations_in_flight_ == 0) busy_since_ = started;
  ++migrations_in_flight_;
  cost_model_.execute(move.from, move.to, move.bytes,
                      [this, id, started, span] {
    stats_.migration_seconds += (sc_.now() - started).sec();
    tracker_.set_migrating(id, false);
    if (--migrations_in_flight_ == 0)
      busy_accum_ += (sc_.now() - busy_since_).sec();
    if (obs_ != nullptr) obs_->close_migration(span, sc_.now());
  });
}

double Engine::migration_busy_seconds() const {
  double busy = busy_accum_;
  if (migrations_in_flight_ > 0) busy += (sc_.now() - busy_since_).sec();
  return busy;
}

}  // namespace tsx::tiering
