#include "service/service.hpp"

#include <algorithm>
#include <limits>

#include "core/json.hpp"
#include "core/strings.hpp"
#include "spark/conf.hpp"
#include "tiering/options.hpp"

namespace tsx::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Default byte demand of one executor: the SparkConf heap analogue.
Bytes default_executor_demand() { return spark::SparkConf{}.executor_memory; }

/// Ordering of queued jobs: arrival time, then submission order.
bool arrives_before(const std::pair<double, std::uint64_t>& a,
                    const std::pair<double, std::uint64_t>& b) {
  return a < b;
}

Energy run_energy(const workloads::RunResult& result) {
  Energy total = Energy::zero();
  for (const workloads::NodeEnergyRow& row : result.energy)
    total += row.report.total;
  return total;
}

}  // namespace

std::string to_string(ArbitrationMode mode) {
  switch (mode) {
    case ArbitrationMode::kFairShare: return "fair_share";
    case ArbitrationMode::kFifo: return "fifo";
  }
  TSX_FAIL("unknown ArbitrationMode");
}

std::string to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  TSX_FAIL("unknown JobState");
}

Service::Service(ServiceConfig config)
    : config_(config),
      topo_(config.machine == workloads::MachineVariant::kDramCxl
                ? mem::cxl_topology()
                : mem::testbed_topology()) {
  TSX_CHECK(config_.per_core_stream_gbps >= 0.0,
            "per_core_stream_gbps must be >= 0");
  TSX_CHECK(config_.max_preemptions_per_job >= 0,
            "max_preemptions_per_job must be >= 0");
  free_cores_.assign(static_cast<std::size_t>(topo_.sockets),
                     topo_.hw_threads_per_socket());
  total_cores_ = topo_.total_hw_threads();
  for (const mem::MemNodeSpec& node : topo_.nodes) {
    free_bytes_.push_back(node.capacity);
    total_bytes_ += node.capacity;
  }
  pools_["default"] = 1.0;
}

Service& Service::add_pool(const PoolSpec& pool) {
  TSX_CHECK(!pool.name.empty(), "pool name must be non-empty");
  TSX_CHECK(pool.weight > 0.0, "pool weight must be positive");
  pools_[pool.name] = pool.weight;
  return *this;
}

Service& Service::add_tenant(const TenantSpec& tenant) {
  TSX_CHECK(!tenant.name.empty(), "tenant name must be non-empty");
  for (const char c : tenant.name)
    TSX_CHECK(static_cast<unsigned char>(c) >= 0x20,
              strfmt("tenant.name has control byte 0x%02x",
                     static_cast<unsigned>(static_cast<unsigned char>(c))));
  TSX_CHECK(tenant.weight > 0.0, "tenant weight must be positive");
  TSX_CHECK(tenants_.find(tenant.name) == tenants_.end(),
            "duplicate tenant '" + tenant.name + "'");
  if (pools_.find(tenant.pool) == pools_.end()) pools_[tenant.pool] = 1.0;
  tenants_[tenant.name] = tenant;
  usage_[tenant.name];  // materialize so the report lists idle tenants too
  return *this;
}

SubmitResult Service::submit(const std::string& tenant, JobSpec spec) {
  SubmitResult res;
  std::vector<Diagnostic>& issues = res.issues;
  if (drained_)
    issues.push_back({"service", "already drained; submissions are closed"});
  if (tenants_.find(tenant) == tenants_.end())
    issues.push_back(
        {"tenant", "unknown tenant '" + tenant + "' (add_tenant first)"});
  if (spec.submit_at_s < 0.0)
    issues.push_back({"submit_at_s", "submission time must be >= 0"});
  if (spec.memory_demand.b() < 0.0)
    issues.push_back({"memory_demand", "byte demand must be >= 0"});
  if (spec.config.machine != config_.machine)
    issues.push_back(
        {"config.machine",
         "job targets " + workloads::to_string(spec.config.machine) +
             " but this service arbitrates " +
             workloads::to_string(config_.machine)});
  for (const Diagnostic& d : spec.config.validate())
    issues.push_back({"config." + d.field, d.message});
  if (!issues.empty()) return res;

  Job job;
  job.id = static_cast<std::uint64_t>(jobs_.size());
  job.tenant = tenant;
  job.spec = spec;
  job.socket = spec.config.socket;
  job.charge_cores =
      std::min(spec.config.executors * spec.config.cores_per_executor,
               topo_.hw_threads_per_socket());
  job.demand_bytes =
      spec.config.executors >= 1 && spec.memory_demand.b() <= 0.0
          ? default_executor_demand() *
                static_cast<double>(spec.config.executors)
          : spec.memory_demand;
  job.node = mem::resolve_tier(topo_, job.socket, spec.config.tier).node;
  // Admission: a demand no grant could ever satisfy is rejected outright
  // instead of queueing forever.
  if (job.demand_bytes > topo_.node(job.node).capacity) {
    issues.push_back(
        {"memory_demand",
         strfmt("%s exceeds the %s capacity of node %d (%s)",
                tsx::to_string(job.demand_bytes).c_str(),
                mem::to_string(spec.config.tier).c_str(), job.node,
                tsx::to_string(topo_.node(job.node).capacity).c_str())});
    return res;
  }
  job.out.id = job.id;
  job.out.tenant = tenant;
  job.out.spec = spec;
  job.out.submitted_s = spec.submit_at_s;
  res.admitted = true;
  res.job_id = job.id;
  jobs_.push_back(std::move(job));
  return res;
}

ResourceGrant Service::need_for(const Job& job, double share) const {
  if (config_.mode == ArbitrationMode::kFifo)
    return {job.charge_cores, job.demand_bytes};
  // Fair-share floor: a tenant may start once its fair slice of the socket
  // and of the bound node is free, even if full demand is not (the grant is
  // then shaped down). Floors of one core / one GiB keep tiny shares
  // runnable.
  const int fair_cores = std::max(
      1, static_cast<int>(share *
                          static_cast<double>(topo_.hw_threads_per_socket())));
  const Bytes fair_bytes =
      std::max(Bytes::gib(1.0), topo_.node(job.node).capacity * share);
  return {std::min(job.charge_cores, fair_cores),
          std::min(job.demand_bytes, fair_bytes)};
}

bool Service::fits(const Job& job, const ResourceGrant& need) const {
  return free_cores_[static_cast<std::size_t>(job.socket)] >= need.cores &&
         free_bytes_[static_cast<std::size_t>(job.node)] >= need.bytes;
}

std::map<std::string, double> Service::shares_now() const {
  std::vector<ShareInput> in;
  in.reserve(tenants_.size());
  for (const auto& [name, spec] : tenants_) {
    bool active = false;
    for (const std::size_t idx : queued_)
      if (jobs_[idx].tenant == name) active = true;
    for (const Running& r : running_)
      if (jobs_[r.job].tenant == name) active = true;
    in.push_back({name, spec.pool, spec.weight, pools_.at(spec.pool), active});
  }
  return fair_shares(in);
}

ResourceFractions Service::usage_of(const std::string& tenant,
                                    double now) const {
  const TenantUsage& u = usage_.at(tenant);
  double core_s = u.core_seconds;
  double byte_s = u.gib_seconds * Bytes::gib(1.0).b();
  for (const Running& r : running_) {
    if (jobs_[r.job].tenant != tenant) continue;
    const double elapsed = now - r.started_s;
    core_s += static_cast<double>(r.grant.cores) * elapsed;
    byte_s += r.grant.bytes.b() * elapsed;
  }
  return {core_s / static_cast<double>(total_cores_),
          byte_s / total_bytes_.b()};
}

ResourceFractions Service::allocation_of(const std::string& tenant) const {
  ResourceFractions f;
  for (const Running& r : running_) {
    if (jobs_[r.job].tenant != tenant) continue;
    f.cores += static_cast<double>(r.grant.cores) /
               static_cast<double>(total_cores_);
    f.bytes += r.grant.bytes.b() / total_bytes_.b();
  }
  return f;
}

void Service::try_schedule(double now) {
  ++rounds_;
  if (config_.mode == ArbitrationMode::kFifo) {
    // Strict arrival order with head-of-line blocking: the head starts only
    // when its FULL demand fits, and nothing behind it may overtake.
    while (!queued_.empty()) {
      const std::size_t head = queued_.front();
      if (!fits(jobs_[head], need_for(jobs_[head], 1.0))) break;
      start(head, now);
    }
    return;
  }
  // Fair share: repeatedly start the most underserved tenant's oldest job,
  // recomputing shares after every start (the active set changes as queues
  // empty). Preemption may make room when a job cannot start and an
  // over-quota tenant is running preemptible work.
  while (!queued_.empty()) {
    const std::map<std::string, double> shares = shares_now();
    struct Candidate {
      double ratio;
      double share;
      std::string tenant;
      std::size_t job;
    };
    std::vector<Candidate> candidates;
    for (const std::size_t idx : queued_) {
      const Job& job = jobs_[idx];
      bool seen = false;
      for (const Candidate& c : candidates) seen |= c.tenant == job.tenant;
      if (seen) continue;  // queued_ is arrival-ordered: first hit is oldest
      const double share = shares.at(job.tenant);
      candidates.push_back({usage_ratio(usage_of(job.tenant, now), share),
                            share, job.tenant, idx});
    }
    // Most underserved first; equal ratios (the t=0 cold start) go to the
    // most entitled tenant, so a large weight is never a disadvantage.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.ratio != b.ratio) return a.ratio < b.ratio;
                if (a.share != b.share) return a.share > b.share;
                return a.tenant < b.tenant;
              });
    bool progressed = false;
    for (const Candidate& c : candidates) {
      const Job& job = jobs_[c.job];
      const ResourceGrant need = need_for(job, shares.at(c.tenant));
      if (fits(job, need) || try_preempt_for(job, need, shares, now)) {
        start(c.job, now);
        progressed = true;
        break;
      }
    }
    if (!progressed) break;
  }
}

bool Service::try_preempt_for(const Job& job, const ResourceGrant& need,
                              const std::map<std::string, double>& shares,
                              double now) {
  if (running_.empty()) return false;
  const double my_ratio =
      usage_ratio(usage_of(job.tenant, now), shares.at(job.tenant));
  while (!fits(job, need)) {
    // Victim: the most over-quota other tenant's youngest preemptible job
    // that would actually free resources this job waits on. Preempting the
    // youngest run wastes the least completed work.
    int best = -1;
    double best_over = 0.0;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      const Running& r = running_[i];
      const Job& victim = jobs_[r.job];
      if (victim.tenant == job.tenant) continue;
      if (!victim.spec.preemptible ||
          victim.out.preemptions >= config_.max_preemptions_per_job)
        continue;
      if (victim.socket != job.socket && victim.node != job.node) continue;
      const auto share_it = shares.find(victim.tenant);
      const double share = share_it == shares.end() ? 0.0 : share_it->second;
      const double over = allocation_of(victim.tenant).dominant() - share;
      if (over <= 0.0) continue;  // only over-quota tenants pay the tax
      if (my_ratio >= usage_ratio(usage_of(victim.tenant, now), share))
        continue;  // never preempt someone as underserved as the requester
      if (best >= 0) {
        const Running& b = running_[static_cast<std::size_t>(best)];
        const Job& bj = jobs_[b.job];
        const bool wins =
            over > best_over ||
            (over == best_over &&
             (r.started_s > b.started_s ||
              (r.started_s == b.started_s && victim.id > bj.id)));
        if (!wins) continue;
      }
      best = static_cast<int>(i);
      best_over = over;
    }
    if (best < 0) break;
    preempt(static_cast<std::size_t>(best), now);
  }
  return fits(job, need);
}

void Service::preempt(std::size_t running_index, double now) {
  const Running r = running_[running_index];
  Job& job = jobs_[r.job];
  const double elapsed = now - r.started_s;
  free_cores_[static_cast<std::size_t>(job.socket)] += r.grant.cores;
  free_bytes_[static_cast<std::size_t>(job.node)] += r.grant.bytes;
  TenantUsage& u = usage_.at(job.tenant);
  const double core_s = static_cast<double>(r.grant.cores) * elapsed;
  u.core_seconds += core_s;
  u.gib_seconds += r.grant.bytes.to_gib() * elapsed;
  u.wasted_core_seconds += core_s;  // capacity consumed, result discarded
  ++u.preemptions;
  ++preemptions_;
  job.out.state = JobState::kQueued;
  job.out.result = workloads::RunResult{};
  ++job.out.preemptions;
  job.out.wasted_s += elapsed;
  job.enqueued_s = now;
  if (obs::Recorder* rec = config_.recorder) {
    rec->instant(strfmt("preempt job=%llu tenant=%s",
                        static_cast<unsigned long long>(job.id),
                        job.tenant.c_str()),
                 "service.preempt", Duration::seconds(now));
    rec->metrics().counter_add("service_preemptions",
                               {{"tenant", job.tenant}});
  }
  running_.erase(running_.begin() +
                 static_cast<std::ptrdiff_t>(running_index));
  // Requeue at the arrival-order position its original submit time earns.
  const std::pair<double, std::uint64_t> key{job.spec.submit_at_s, job.id};
  auto pos = queued_.begin();
  while (pos != queued_.end() &&
         arrives_before({jobs_[*pos].spec.submit_at_s, jobs_[*pos].id}, key))
    ++pos;
  queued_.insert(pos, r.job);
}

workloads::RunResult Service::execute(const workloads::RunConfig& config) {
  if (config_.cache != nullptr) {
    if (auto hit = config_.cache->find(config)) return *hit;
  }
  workloads::RunResult result;
  try {
    result = workloads::run_workload(config, config_.run_wall_budget_s);
  } catch (const Error& e) {
    result = workloads::failed_result(config, e.what());
  }
  if (config_.cache != nullptr && !result.failed)
    config_.cache->insert(result);
  return result;
}

void Service::start(std::size_t job_index, double now) {
  Job& job = jobs_[job_index];
  const auto queued_it =
      std::find(queued_.begin(), queued_.end(), job_index);
  TSX_CHECK(queued_it != queued_.end(), "starting a job that is not queued");
  queued_.erase(queued_it);

  ResourceGrant grant;
  grant.cores = std::min(job.charge_cores,
                         free_cores_[static_cast<std::size_t>(job.socket)]);
  grant.bytes = std::min(job.demand_bytes,
                         free_bytes_[static_cast<std::size_t>(job.node)]);
  free_cores_[static_cast<std::size_t>(job.socket)] -= grant.cores;
  free_bytes_[static_cast<std::size_t>(job.node)] -= grant.bytes;

  workloads::RunConfig cfg = job.spec.config;
  bool shaped = false;
  if (grant.cores < job.charge_cores) {
    // Shape the deployment to the grant: keep as many executors as fit,
    // split the granted threads evenly. e * c never exceeds grant.cores.
    const int executors = std::min(cfg.executors, grant.cores);
    cfg.executors = executors;
    cfg.cores_per_executor = std::max(1, grant.cores / executors);
    shaped = true;
  }
  if (grant.bytes < job.demand_bytes &&
      cfg.tiering.policy != tiering::PolicyKind::kStatic) {
    // A dynamic-tiering job granted fewer bound-node bytes gets a
    // proportionally smaller fast-capacity budget.
    cfg.tiering.fast_capacity_gib *= grant.bytes / job.demand_bytes;
    shaped = true;
  }
  // Noisy neighbors: co-runners sharing this job's memory node stream
  // against the same channel. Frozen at start (the paper's
  // background-load knob is per-run constant).
  double background = 0.0;
  for (const Running& r : running_) {
    if (jobs_[r.job].node != job.node) continue;
    background +=
        config_.per_core_stream_gbps * static_cast<double>(r.grant.cores);
  }
  if (background > 0.0) cfg.background_load_gbps += background;

  job.out.state = JobState::kRunning;
  job.out.grant = grant;
  job.out.executed = cfg;
  job.out.shaped = shaped;
  job.out.background_gbps = background;
  job.out.started_s = now;
  job.out.queue_wait_s += now - job.enqueued_s;
  job.out.result = execute(cfg);

  running_.push_back(
      {job_index, grant, now, now + job.out.result.exec_time.sec()});

  TenantUsage& u = usage_.at(job.tenant);
  int concurrent_cores = 0;
  double concurrent_gib = 0.0;
  for (const Running& r : running_) {
    if (jobs_[r.job].tenant != job.tenant) continue;
    concurrent_cores += r.grant.cores;
    concurrent_gib += r.grant.bytes.to_gib();
  }
  u.peak_cores = std::max(u.peak_cores, concurrent_cores);
  u.peak_gib = std::max(u.peak_gib, concurrent_gib);
}

void Service::complete(std::size_t running_index) {
  const Running r = running_[running_index];
  Job& job = jobs_[r.job];
  const double elapsed = r.finish_s - r.started_s;
  free_cores_[static_cast<std::size_t>(job.socket)] += r.grant.cores;
  free_bytes_[static_cast<std::size_t>(job.node)] += r.grant.bytes;

  job.out.state = JobState::kDone;
  job.out.finished_s = r.finish_s;

  const workloads::RunResult& result = job.out.result;
  TenantUsage& u = usage_.at(job.tenant);
  u.core_seconds += static_cast<double>(r.grant.cores) * elapsed;
  u.gib_seconds += r.grant.bytes.to_gib() * elapsed;
  u.exec_seconds += result.exec_time.sec();
  u.queue_wait_seconds += job.out.queue_wait_s;
  u.migration_seconds += result.tiering.migration_seconds;
  u.bytes_migrated +=
      result.tiering.bytes_promoted + result.tiering.bytes_demoted;
  u.energy += run_energy(result);
  u.retries += result.fault.retries;
  u.recomputed_tasks += result.fault.recomputed_map_tasks;
  if (result.failed) {
    ++u.jobs_failed;
  } else {
    ++u.jobs_completed;
  }
  if (obs::Recorder* rec = config_.recorder) {
    // One span per completed job, on the drain's own virtual timeline:
    // submitted -> finished, with the service-level buckets itemized.
    const obs::SpanId span = rec->open(
        obs::SpanKind::kService,
        strfmt("job:%llu:%s", static_cast<unsigned long long>(job.id),
               workloads::to_string(job.spec.config.app).c_str()),
        "service.job", Duration::seconds(job.out.submitted_s));
    if (span != 0) {
      rec->set_arg(span, "tenant", job.tenant);
      rec->set_arg(span, "preemptions",
                   strfmt("%d", job.out.preemptions));
      if (job.out.shaped) rec->set_arg(span, "shaped", "true");
      obs::TimeAttribution attr;
      attr.add(obs::Bucket::kQueueWait, job.out.queue_wait_s);
      attr.add(obs::Bucket::kCompute, elapsed);
      attr.add(obs::Bucket::kRecovery, job.out.wasted_s);
      rec->close_with_attribution(span, Duration::seconds(r.finish_s), attr,
                                  obs::Bucket::kOther);
    }
    rec->metrics().counter_add(
        result.failed ? "service_jobs_failed" : "service_jobs_completed",
        {{"tenant", job.tenant}});
    rec->metrics().observe("service_queue_wait_s", {{"tenant", job.tenant}},
                           job.out.queue_wait_s, 0.0, 600.0, 120);
  }
  running_.erase(running_.begin() +
                 static_cast<std::ptrdiff_t>(running_index));
}

ServiceReport Service::drain() {
  TSX_CHECK(!drained_, "a Service drains exactly once");
  drained_ = true;

  // Arrival schedule: submission order already sorts equal submit times by
  // id, so a stable sort on time alone is the full (time, id) order.
  std::vector<std::size_t> arrivals(jobs_.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = i;
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [this](std::size_t a, std::size_t b) {
                     return jobs_[a].spec.submit_at_s <
                            jobs_[b].spec.submit_at_s;
                   });

  std::size_t next_arrival = 0;
  double now = 0.0;
  double last_event = 0.0;
  while (true) {
    // 1. Retire every run finishing at or before `now`, earliest first
    //    (ties by job id) so usage accounting is order-deterministic.
    for (;;) {
      int done = -1;
      for (std::size_t i = 0; i < running_.size(); ++i) {
        if (running_[i].finish_s > now) continue;
        if (done < 0) {
          done = static_cast<int>(i);
          continue;
        }
        const Running& best = running_[static_cast<std::size_t>(done)];
        if (running_[i].finish_s < best.finish_s ||
            (running_[i].finish_s == best.finish_s &&
             jobs_[running_[i].job].id < jobs_[best.job].id))
          done = static_cast<int>(i);
      }
      if (done < 0) break;
      last_event = std::max(last_event,
                            running_[static_cast<std::size_t>(done)].finish_s);
      complete(static_cast<std::size_t>(done));
    }
    // 2. Admit arrivals due by `now`.
    while (next_arrival < arrivals.size() &&
           jobs_[arrivals[next_arrival]].spec.submit_at_s <= now) {
      const std::size_t idx = arrivals[next_arrival++];
      jobs_[idx].enqueued_s = now;
      queued_.push_back(idx);  // arrivals drain in (time, id) order already
      last_event = std::max(last_event, now);
    }
    // 3. Let the arbiter place whatever fits (possibly preempting).
    try_schedule(now);
    // 4. Advance virtual time to the next event.
    double next = kInf;
    if (next_arrival < arrivals.size())
      next = std::min(next, jobs_[arrivals[next_arrival]].spec.submit_at_s);
    for (const Running& r : running_) next = std::min(next, r.finish_s);
    if (next == kInf) break;
    now = next;
  }
  TSX_CHECK(queued_.empty() && running_.empty(),
            "drain ended with unfinished jobs");

  ServiceReport report;
  report.seed = config_.seed;
  report.mode = config_.mode;
  report.machine = config_.machine;
  report.makespan_s = last_event;
  report.scheduling_rounds = rounds_;
  report.preemptions = preemptions_;
  report.jobs.reserve(jobs_.size());
  for (const Job& job : jobs_) report.jobs.push_back(job.out);
  for (const auto& [name, usage] : usage_)
    report.tenants.emplace_back(name, usage);
  return report;
}

std::string to_json(const ServiceReport& report) {
  std::string out;
  json::Writer w(out);
  w.begin_object().key("service").begin_object();
  w.field("seed", report.seed).field("mode", to_string(report.mode));
  w.field("machine", workloads::to_string(report.machine)).end_object();
  w.field("makespan_s", report.makespan_s);
  w.field("scheduling_rounds", report.scheduling_rounds);
  w.field("preemptions", report.preemptions);
  w.key("jobs").begin_array();
  for (const JobOutcome& j : report.jobs) {
    const workloads::RunConfig& c = j.spec.config;
    w.begin_object().field("id", j.id).field("tenant", j.tenant);
    w.field("app", workloads::to_string(c.app));
    w.field("scale", workloads::to_string(c.scale));
    w.field("tier", mem::index(c.tier)).field("state", to_string(j.state));
    w.field("grant_cores", j.grant.cores);
    w.field("grant_gib", j.grant.bytes.to_gib()).field("shaped", j.shaped);
    w.field("background_gbps", j.background_gbps);
    w.field("submitted_s", j.submitted_s).field("started_s", j.started_s);
    w.field("finished_s", j.finished_s);
    w.field("queue_wait_s", j.queue_wait_s);
    w.field("preemptions", j.preemptions).field("wasted_s", j.wasted_s);
    w.field("config_hash",
            strfmt("%016llx", static_cast<unsigned long long>(
                                  workloads::stable_hash(j.executed))));
    w.field("exec_s", j.result.exec_time.sec());
    w.field("energy_j", run_energy(j.result).j());
    w.field("failed", j.result.failed).end_object();
  }
  w.end_array().key("tenants").begin_array();
  for (const auto& [name, u] : report.tenants) {
    w.begin_object().field("tenant", name);
    w.field("core_seconds", u.core_seconds);
    w.field("gib_seconds", u.gib_seconds);
    w.field("wasted_core_seconds", u.wasted_core_seconds);
    w.field("exec_seconds", u.exec_seconds);
    w.field("queue_wait_seconds", u.queue_wait_seconds);
    w.field("migration_seconds", u.migration_seconds);
    w.field("gib_migrated", u.bytes_migrated.to_gib());
    w.field("energy_j", u.energy.j()).field("retries", u.retries);
    w.field("recomputed_tasks", u.recomputed_tasks);
    w.field("jobs_completed", u.jobs_completed);
    w.field("jobs_failed", u.jobs_failed);
    w.field("preemptions", u.preemptions).field("peak_cores", u.peak_cores);
    w.field("peak_gib", u.peak_gib).end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace tsx::service
