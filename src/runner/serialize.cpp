#include "runner/serialize.hpp"

#include <optional>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/json.hpp"
#include "core/strings.hpp"

namespace tsx::runner {

namespace {

using workloads::RunResult;

template <typename T>
constexpr bool kIsQuantity = std::is_base_of_v<detail::Quantity<T>, T>;

using OptionalTier = std::optional<mem::TierId>;

/// The one RunResult field list, in the frozen JSON order: `to_json` walks
/// it with Emit and `result_from_json` with Load, so every serialized field
/// is named once. `R` is `RunResult` or `const RunResult`. A visitor takes
///   v(name, x)                a scalar, a unit quantity or the config
///   v(name, x, from_index)    an enum, through its range-checked codec
///   v.object(name, fn)        a nested object; fn(v) visits its fields
///   v.list(name, items, fn)   an array of objects; fn(v, item)
///   v.values(name, items)     a fixed-length array of numbers
template <typename R, typename V>
void visit_result(R& r, V& v) {
  v("config", r.config);
  v("exec_time", r.exec_time);
  v.object("total_cost", [&](V& c) {
    c("cpu_seconds", r.total_cost.cpu_seconds);
    c("io_seconds", r.total_cost.io_seconds);
    c("disk_read", r.total_cost.disk_read);
    c("disk_write", r.total_cost.disk_write);
    c.values("stream_read_by", r.total_cost.stream_read_by);
    c.values("stream_write_by", r.total_cost.stream_write_by);
    c("dep_reads", r.total_cost.dep_reads);
    c("dep_writes", r.total_cost.dep_writes);
  });
  v("jobs", r.jobs);
  v("stages", r.stages);
  v("tasks", r.tasks);
  v.list("traffic", r.traffic, [](V& t, auto& node) {
    t("read_bytes", node.read_bytes);
    t("write_bytes", node.write_bytes);
    t("read_accesses", node.read_accesses);
    t("write_accesses", node.write_accesses);
  });
  v.object("nvdimm", [&](V& n) {
    n("node_name", r.nvdimm.node_name);
    n("dimms", r.nvdimm.dimms);
    n("media_reads", r.nvdimm.media_reads);
    n("media_writes", r.nvdimm.media_writes);
    n("demand_read_bytes", r.nvdimm.demand_read_bytes);
    n("demand_write_bytes", r.nvdimm.demand_write_bytes);
  });
  v.list("energy", r.energy, [](V& e, auto& row) {
    e("node", row.node);
    e("kind", row.kind, mem::tech_kind_from_index);
    e("dimms", row.dimms);
    e("dynamic_energy", row.report.dynamic_energy);
    e("static_energy", row.report.static_energy);
    e("total", row.report.total);
    e("average_power", row.report.average_power);
    e("per_dimm", row.report.per_dimm);
  });
  v.object("wear", [&](V& w) {
    w("lifetime_fraction_used", r.wear.lifetime_fraction_used);
    w("projected_lifetime", r.wear.projected_lifetime);
    w("observed_write_rate", r.wear.observed_write_rate);
  });
  v.values("events", r.events.values);
  v.object("tiering", [&](V& t) {
    t("epochs", r.tiering.epochs);
    t("promotions", r.tiering.promotions);
    t("demotions", r.tiering.demotions);
    t("bytes_promoted", r.tiering.bytes_promoted);
    t("bytes_demoted", r.tiering.bytes_demoted);
    t("nvm_bytes_written", r.tiering.nvm_bytes_written);
    t("nvm_write_energy", r.tiering.nvm_write_energy);
    t("migration_seconds", r.tiering.migration_seconds);
  });
  v.object("fault", [&](V& f) {
    f("crashes", r.fault.crashes);
    f("tier_offline_events", r.fault.tier_offline_events);
    f("uce_events", r.fault.uce_events);
    f("bw_collapses", r.fault.bw_collapses);
    f("stragglers", r.fault.stragglers);
    f("lost_cache_blocks", r.fault.lost_cache_blocks);
    f("lost_shuffle_outputs", r.fault.lost_shuffle_outputs);
    f("task_failures", r.fault.task_failures);
    f("retries", r.fault.retries);
    f("recomputed_map_tasks", r.fault.recomputed_map_tasks);
    f("speculative_launches", r.fault.speculative_launches);
    f("speculative_wins", r.fault.speculative_wins);
    f("rerouted_requests", r.fault.rerouted_requests);
    f("rerouted_bytes", r.fault.rerouted_bytes);
    f("backoff_wait_seconds", r.fault.backoff_wait_seconds);
  });
  v.object("dfs", [&](V& d) {
    d("datanodes_lost", r.dfs.datanodes_lost);
    d("racks_lost", r.dfs.racks_lost);
    d("racks_recovered", r.dfs.racks_recovered);
    d("chunks_lost", r.dfs.chunks_lost);
    d("chunks_unreadable", r.dfs.chunks_unreadable);
    d("degraded_reads", r.dfs.degraded_reads);
    d("reconstructed_chunks", r.dfs.reconstructed_chunks);
    d("repair_waves", r.dfs.repair_waves);
    d("chunks_repaired", r.dfs.chunks_repaired);
    d("repair_tasks_cancelled", r.dfs.repair_tasks_cancelled);
    d("repair_read_bytes", r.dfs.repair_read_bytes);
    d("repair_write_bytes", r.dfs.repair_write_bytes);
    d("repair_seconds", r.dfs.repair_seconds);
  });
  v("valid", r.valid);
  v("validation", r.validation);
  v("failed", r.failed);
  v("error", r.error);
  v("bound_node", r.bound_node);
}

/// Writes each visited field into one JSON object. The config section is
/// the RunConfig field table, whose booleans are spelled 1/0.
struct Emit {
  json::Writer& w;
  bool config = false;

  template <typename T>
  void put(const T& x) {
    if constexpr (std::is_same_v<T, workloads::RunConfig>) {
      w.begin_object();
      workloads::visit_config(x, Emit{w, true});
      w.end_object();
    } else if constexpr (std::is_same_v<T, OptionalTier>) {
      x ? w.value(mem::index(*x)) : w.null();
    } else if constexpr (kIsQuantity<T>) {
      w.value(x.v);
    } else if constexpr (std::is_same_v<T, bool>) {
      config ? w.raw(x ? "1" : "0") : w.value(x);
    } else if constexpr (std::is_enum_v<T>) {
      w.value(static_cast<int>(x));
    } else {
      w.value(x);
    }
  }
  /// `codec` is an enum's `from_index`, which writing does not need.
  template <typename T, typename... Codec>
  void operator()(std::string_view name, const T& x, Codec...) {
    w.key(name);
    put(x);
  }
  template <typename Fn>
  void object(std::string_view name, Fn fn) {
    w.key(name).begin_object();
    fn(*this);
    w.end_object();
  }
  template <typename Items, typename Fn>
  void list(std::string_view name, const Items& items, Fn fn) {
    w.key(name).begin_array();
    for (const auto& item : items) {
      w.begin_object();
      fn(*this, item);
      w.end_object();
    }
    w.end_array();
  }
  template <typename Items>
  void values(std::string_view name, const Items& items) {
    w.key(name).begin_array();
    for (const auto& x : items) put(x);
    w.end_array();
  }
};

/// Reads each visited field back from a parsed object, strictly: a missing
/// field, a member no field names, a token of the wrong type or range, an
/// enum index its codec rejects, or an array of the wrong length throws
/// tsx::Error naming the field. Config booleans must be 1/0, result
/// booleans true/false.
struct Load {
  const json::Value& in;
  bool config = false;
  std::vector<bool> read_members;  ///< per member of `in`: a field read it

  /// Visits `object`'s fields through `fn(load)`, then rejects the first
  /// member that no field read.
  template <typename Fn>
  static void read(const json::Value& object, bool config_table, Fn fn) {
    Load load(object, config_table);
    fn(load);
    for (std::size_t i = 0; i < load.read_members.size(); ++i)
      if (!load.read_members[i])
        TSX_FAIL(object.items()[i].name() + " is not a field");
  }

  Load(const json::Value& object, bool config_table)
      : in(object), config(config_table) {
    if (!in.is(json::Value::Kind::kObject)) in.reject("is not an object");
    read_members.resize(in.items().size());
  }

  /// The member `name`; a missing one throws.
  const json::Value& member(std::string_view name) {
    const json::Value& f = in.at(name);
    read_members[static_cast<std::size_t>(&f - in.items().data())] = true;
    return f;
  }

  template <typename T>
  void get(const json::Value& f, T& x) {
    if constexpr (std::is_same_v<T, workloads::RunConfig>) {
      read(f, true, [&x](Load& c) { workloads::visit_config(x, c); });
    } else if constexpr (std::is_same_v<T, OptionalTier>) {
      x.reset();
      if (!f.is(json::Value::Kind::kNull)) x = f.as_enum(mem::tier_from_index);
    } else if constexpr (kIsQuantity<T>) {
      x.v = f.as_double();
    } else if constexpr (std::is_same_v<T, bool>) {
      if (!config) {
        x = f.as_bool();
      } else if (f.is(json::Value::Kind::kNumber) &&
                 (f.text() == "1" || f.text() == "0")) {
        x = f.text() == "1";
      } else {
        f.reject("is not a boolean");
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = f.as_string();
    } else if constexpr (std::is_same_v<T, double>) {
      x = f.as_double();
    } else if constexpr (std::is_same_v<T, int>) {
      x = f.as_int();
    } else {
      static_assert(std::is_unsigned_v<T>, "no JSON reader for this type");
      x = f.as_u64();
    }
  }
  template <typename T>
  void operator()(std::string_view name, T& x) {
    get(member(name), x);
  }
  template <typename E>
  void operator()(std::string_view name, E& x, E (*from_index)(int)) {
    x = member(name).as_enum(from_index);
  }
  template <typename Fn>
  void object(std::string_view name, Fn fn) {
    read(member(name), false, fn);
  }
  template <typename Items, typename Fn>
  void list(std::string_view name, Items& items, Fn fn) {
    const json::Value& a = array(name, items);
    for (std::size_t i = 0; i < items.size(); ++i)
      read(a.items()[i], false, [&](Load& e) { fn(e, items[i]); });
  }
  template <typename Items>
  void values(std::string_view name, Items& items) {
    const json::Value& a = array(name, items);
    for (std::size_t i = 0; i < items.size(); ++i) get(a.items()[i], items[i]);
  }

  /// The array member `name`, with `items` sized to it: a vector grows to
  /// fit, a fixed-length array must match.
  template <typename Items>
  const json::Value& array(std::string_view name, Items& items) {
    const json::Value& a = member(name);
    if (!a.is(json::Value::Kind::kArray)) a.reject("is not an array");
    const std::size_t n = a.items().size();
    if constexpr (requires { items.resize(n); })
      items.resize(n);
    else if (n != items.size())
      a.reject(strfmt("has %zu entries, expected %zu", n, items.size()));
    return a;
  }
};

}  // namespace

std::string to_json(const RunResult& result) {
  std::string out;
  out.reserve(4096);
  json::Writer w(out);
  Emit emit{w};
  w.begin_object();
  visit_result(result, emit);
  w.end_object();
  return out;
}

bool result_from_json(const std::string& json, RunResult* out,
                      std::string* error) {
  try {
    const json::Value doc = json::parse(json);
    RunResult r;
    Load::read(doc, false, [&r](Load& load) { visit_result(r, load); });
    // A config no run would accept (hand-edited, or written before a
    // validation rule existed) must not be served as a run's result.
    if (const auto issues = r.config.validate(); !issues.empty())
      TSX_FAIL("config " + to_string(issues.front()));
    *out = std::move(r);
    return true;
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

bool results_identical(const RunResult& a, const RunResult& b) {
  return to_json(a) == to_json(b);
}

}  // namespace tsx::runner
