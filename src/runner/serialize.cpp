#include "runner/serialize.hpp"

#include <limits>
#include <map>
#include <vector>

#include "columnar/options.hpp"
#include "core/config.hpp"
#include "core/error.hpp"
#include "core/strings.hpp"
#include "dfs/options.hpp"
#include "tiering/options.hpp"

namespace tsx::runner {

namespace {

using workloads::RunConfig;
using workloads::RunResult;

// ---- writer ---------------------------------------------------------------

std::string num(double v) { return strfmt("%.17g", v); }

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

/// Tiny streaming JSON-object writer; callers emit fields in schema order.
class ObjectWriter {
 public:
  ObjectWriter() : out_("{") {}
  void field(const std::string& name, const std::string& raw_value) {
    if (out_.size() > 1) out_ += ',';
    out_ += quote(name);
    out_ += ':';
    out_ += raw_value;
  }
  std::string close() { return out_ + "}"; }

 private:
  std::string out_;
};

template <typename T, typename Fn>
std::string array_of(const std::vector<T>& items, Fn render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += render(items[i]);
  }
  return out + "]";
}

std::string config_json(const RunConfig& config) {
  // The field list is the same single source of truth the hash uses, so the
  // persisted key and the in-memory key can never disagree.
  ObjectWriter w;
  for (const auto& [name, value] : workloads::config_fields(config)) {
    // Numeric tokens are emitted bare and "none" maps to null (the frozen
    // pre-obs byte layout); anything else — the string-valued knobs like
    // obs_trace_filter — is emitted as a JSON string.
    if (value == "none") {
      w.field(name, "null");
      continue;
    }
    const bool bare =
        !value.empty() &&
        value.find_first_not_of("0123456789+-.eE") == std::string::npos;
    w.field(name, bare ? value : quote(value));
  }
  return w.close();
}

std::string task_cost_json(const spark::TaskCost& c) {
  ObjectWriter w;
  w.field("cpu_seconds", num(c.cpu_seconds));
  w.field("io_seconds", num(c.io_seconds));
  w.field("disk_read", num(c.disk_read.b()));
  w.field("disk_write", num(c.disk_write.b()));
  std::string reads = "[", writes = "[";
  for (int i = 0; i < spark::kNumStreamClasses; ++i) {
    if (i) {
      reads += ',';
      writes += ',';
    }
    reads += num(c.stream_read_by[static_cast<std::size_t>(i)].b());
    writes += num(c.stream_write_by[static_cast<std::size_t>(i)].b());
  }
  w.field("stream_read_by", reads + "]");
  w.field("stream_write_by", writes + "]");
  w.field("dep_reads", num(c.dep_reads));
  w.field("dep_writes", num(c.dep_writes));
  return w.close();
}

std::string traffic_json(const mem::NodeTraffic& t) {
  ObjectWriter w;
  w.field("read_bytes", num(t.read_bytes.b()));
  w.field("write_bytes", num(t.write_bytes.b()));
  w.field("read_accesses", std::to_string(t.read_accesses));
  w.field("write_accesses", std::to_string(t.write_accesses));
  return w.close();
}

std::string energy_row_json(const workloads::NodeEnergyRow& row) {
  ObjectWriter w;
  w.field("node", quote(row.node));
  w.field("kind", std::to_string(static_cast<int>(row.kind)));
  w.field("dimms", std::to_string(row.dimms));
  w.field("dynamic_energy", num(row.report.dynamic_energy.j()));
  w.field("static_energy", num(row.report.static_energy.j()));
  w.field("total", num(row.report.total.j()));
  w.field("average_power", num(row.report.average_power.w()));
  w.field("per_dimm", num(row.report.per_dimm.j()));
  return w.close();
}

// ---- parser ---------------------------------------------------------------

/// Parsed JSON-ish value. Scalars keep their raw token text so integer
/// fields can be recovered exactly (no double round trip for uint64).
/// Every value remembers its key (`name[i]` for an array element), and the
/// typed accessors parse strictly: a token that is not wholly a number in
/// range, or not a boolean, throws tsx::Error naming the key.
struct Value {
  enum class Kind { kObject, kArray, kScalar } kind = Kind::kScalar;
  std::map<std::string, Value> object;
  std::vector<Value> array;
  std::string text;  ///< unescaped string or raw primitive token
  std::string key;   ///< member name ("" for the document root)

  const Value& at(const std::string& name) const {
    const auto it = object.find(name);
    TSX_CHECK(it != object.end(), "missing field: " + name);
    return it->second;
  }
  double as_double() const {
    // The format's non-finite extension: the exact tokens %.17g prints
    // for infinities and NaNs, and nothing else (no "1e999", "infinity").
    if (text == "inf" || text == "-inf" || text == "nan" || text == "-nan") {
      const double magnitude = text.back() == 'f'
                                   ? std::numeric_limits<double>::infinity()
                                   : std::numeric_limits<double>::quiet_NaN();
      return text.front() == '-' ? -magnitude : magnitude;
    }
    return parse_double(text, key, -std::numeric_limits<double>::max(),
                        std::numeric_limits<double>::max());
  }
  std::uint64_t as_u64() const { return parse_u64(text, key); }
  int as_int() const {
    return parse_int(text, key, std::numeric_limits<int>::min(),
                     std::numeric_limits<int>::max());
  }
  /// Results write booleans as true/false; config fields as 1/0 (the
  /// frozen config byte layout the stable hash reads).
  bool as_bool() const {
    if (text == "true" || text == "1") return true;
    TSX_CHECK(text == "false" || text == "0",
              key + "=\"" + text + "\" is not a boolean");
    return false;
  }
  bool is_null() const {
    return kind == Kind::kScalar && text == "null";
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    const Value v = parse_value("");
    skip_ws();
    TSX_CHECK(pos_ == text_.size(), "trailing bytes after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    TSX_CHECK(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    TSX_CHECK(peek() == c, strfmt("expected '%c' at offset %zu", c, pos_));
    ++pos_;
  }

  Value parse_value(std::string key) {
    skip_ws();
    Value v;
    switch (peek()) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(key); break;
      case '"': v = parse_string(); break;
      default: v = parse_primitive(key);
    }
    v.key = std::move(key);
    return v;
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      Value key = parse_string();
      skip_ws();
      expect(':');
      Value member = parse_value(key.text);
      v.object.emplace(std::move(key.text), std::move(member));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array(const std::string& key) {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(
          parse_value(key + "[" + std::to_string(v.array.size()) + "]"));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value parse_string() {
    Value v;
    expect('"');
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          default: TSX_FAIL(strfmt("bad escape '\\%c'", esc));
        }
      }
      v.text += c;
    }
    ++pos_;
    return v;
  }

  Value parse_primitive(const std::string& key) {
    // Numbers, true/false/null, and the inf/nan extension tokens.
    Value v;
    const auto is_primitive_char = [](char c) {
      return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
             (c >= 'A' && c <= 'Z') || c == '+' || c == '-' || c == '.';
    };
    TSX_CHECK(is_primitive_char(peek()), key + " has no value");
    while (pos_ < text_.size() && is_primitive_char(text_[pos_]))
      v.text += text_[pos_++];
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

RunConfig config_from(const Value& v) {
  RunConfig c;
  c.app = static_cast<workloads::App>(v.at("app").as_int());
  c.scale = static_cast<workloads::ScaleId>(v.at("scale").as_int());
  c.tier = mem::tier_from_index(v.at("tier").as_int());
  c.socket = v.at("socket").as_int();
  c.executors = v.at("executors").as_int();
  c.cores_per_executor = v.at("cores_per_executor").as_int();
  c.mba_percent = v.at("mba_percent").as_int();
  c.seed = v.at("seed").as_u64();
  if (!v.at("shuffle_tier").is_null())
    c.shuffle_tier = mem::tier_from_index(v.at("shuffle_tier").as_int());
  if (!v.at("cache_tier").is_null())
    c.cache_tier = mem::tier_from_index(v.at("cache_tier").as_int());
  c.zero_copy_shuffle = v.at("zero_copy_shuffle").as_bool();
  c.background_load_gbps = v.at("background_load_gbps").as_double();
  c.machine = static_cast<workloads::MachineVariant>(v.at("machine").as_int());
  c.tiering.policy = tiering::policy_from_index(v.at("tiering_policy").as_int());
  c.tiering.epoch_ms = v.at("tiering_epoch_ms").as_double();
  c.tiering.decay = v.at("tiering_decay").as_double();
  c.tiering.sample =
      tiering::sample_mode_from_index(v.at("tiering_sample").as_int());
  c.tiering.sample_period = v.at("tiering_sample_period").as_int();
  c.tiering.hint_fault_us = v.at("tiering_hint_fault_us").as_double();
  c.tiering.fast_capacity_gib = v.at("tiering_fast_gib").as_double();
  c.tiering.low_watermark = v.at("tiering_low_watermark").as_double();
  c.tiering.high_watermark = v.at("tiering_high_watermark").as_double();
  c.tiering.max_fast_utilization = v.at("tiering_max_util").as_double();
  c.tiering.migration_mlp = v.at("tiering_migration_mlp").as_double();
  c.fault.enabled = v.at("fault_enabled").as_bool();
  c.fault.salt = v.at("fault_salt").as_u64();
  c.fault.executor_crashes = v.at("fault_crashes").as_int();
  c.fault.crash_offset_s = v.at("fault_crash_offset_s").as_double();
  c.fault.crash_window_s = v.at("fault_crash_window_s").as_double();
  c.fault.restart_delay_s = v.at("fault_restart_delay_s").as_double();
  c.fault.offline_tier = v.at("fault_offline_tier").as_int();
  c.fault.offline_at_s = v.at("fault_offline_at_s").as_double();
  c.fault.degrade_to = v.at("fault_degrade_to").as_int();
  c.fault.uce_per_gib = v.at("fault_uce_per_gib").as_double();
  c.fault.bw_collapse_at_s = v.at("fault_bw_collapse_at_s").as_double();
  c.fault.bw_collapse_duration_s =
      v.at("fault_bw_collapse_duration_s").as_double();
  c.fault.bw_collapse_factor = v.at("fault_bw_collapse_factor").as_double();
  c.fault.bw_collapse_tier = v.at("fault_bw_collapse_tier").as_int();
  c.fault.straggler_prob = v.at("fault_straggler_prob").as_double();
  c.fault.straggler_factor = v.at("fault_straggler_factor").as_double();
  c.fault.max_task_attempts = v.at("fault_max_task_attempts").as_int();
  c.fault.backoff_base_ms = v.at("fault_backoff_base_ms").as_double();
  c.fault.backoff_cap_ms = v.at("fault_backoff_cap_ms").as_double();
  c.fault.speculation = v.at("fault_speculation").as_bool();
  c.fault.speculation_multiplier =
      v.at("fault_speculation_multiplier").as_double();
  c.fault.speculation_min_fraction =
      v.at("fault_speculation_min_fraction").as_double();
  c.fault.datanode_crashes = v.at("fault_datanode_crashes").as_int();
  c.fault.datanode_crash_at_s = v.at("fault_datanode_at_s").as_double();
  c.fault.datanode_crash_window_s =
      v.at("fault_datanode_window_s").as_double();
  c.fault.rack_offline = v.at("fault_rack_offline").as_int();
  c.fault.rack_offline_at_s = v.at("fault_rack_at_s").as_double();
  c.fault.rack_recover_after_s = v.at("fault_rack_recover_s").as_double();
  c.columnar.enabled = v.at("columnar_enabled").as_bool();
  c.columnar.batch_rows = v.at("columnar_batch_rows").as_int();
  c.columnar.arena_chunk_kib = v.at("columnar_arena_chunk_kib").as_double();
  c.columnar.dict_capacity = v.at("columnar_dict_capacity").as_int();
  c.obs.enabled = v.at("obs_enabled").as_bool();
  c.obs.trace_filter = v.at("obs_trace_filter").text;
  c.dfs.codec = static_cast<dfs::CodecKind>(v.at("dfs_codec").as_int());
  c.dfs.replication = v.at("dfs_replication").as_int();
  c.dfs.rs_k = v.at("dfs_rs_k").as_int();
  c.dfs.rs_m = v.at("dfs_rs_m").as_int();
  c.dfs.racks = v.at("dfs_racks").as_int();
  c.dfs.nodes_per_rack = v.at("dfs_nodes_per_rack").as_int();
  c.dfs.block_mib = v.at("dfs_block_mib").as_double();
  c.dfs.repair_gbps = v.at("dfs_repair_gbps").as_double();
  c.dfs.rack_link_gbps = v.at("dfs_rack_gbps").as_double();
  return c;
}

spark::TaskCost task_cost_from(const Value& v) {
  spark::TaskCost c;
  c.cpu_seconds = v.at("cpu_seconds").as_double();
  c.io_seconds = v.at("io_seconds").as_double();
  c.disk_read = Bytes::of(v.at("disk_read").as_double());
  c.disk_write = Bytes::of(v.at("disk_write").as_double());
  const Value& reads = v.at("stream_read_by");
  const Value& writes = v.at("stream_write_by");
  const auto n_classes = static_cast<std::size_t>(spark::kNumStreamClasses);
  TSX_CHECK(reads.array.size() == n_classes &&
                writes.array.size() == n_classes,
            "stream class count mismatch");
  for (std::size_t i = 0; i < n_classes; ++i) {
    c.stream_read_by[i] = Bytes::of(reads.array[i].as_double());
    c.stream_write_by[i] = Bytes::of(writes.array[i].as_double());
  }
  c.dep_reads = v.at("dep_reads").as_double();
  c.dep_writes = v.at("dep_writes").as_double();
  return c;
}

}  // namespace

std::string to_json(const RunResult& result) {
  ObjectWriter w;
  w.field("config", config_json(result.config));
  w.field("exec_time", num(result.exec_time.sec()));
  w.field("total_cost", task_cost_json(result.total_cost));
  w.field("jobs", std::to_string(result.jobs));
  w.field("stages", std::to_string(result.stages));
  w.field("tasks", std::to_string(result.tasks));
  w.field("traffic", array_of(result.traffic, traffic_json));
  ObjectWriter nv;
  nv.field("node_name", quote(result.nvdimm.node_name));
  nv.field("dimms", std::to_string(result.nvdimm.dimms));
  nv.field("media_reads", std::to_string(result.nvdimm.media_reads));
  nv.field("media_writes", std::to_string(result.nvdimm.media_writes));
  nv.field("demand_read_bytes", num(result.nvdimm.demand_read_bytes.b()));
  nv.field("demand_write_bytes", num(result.nvdimm.demand_write_bytes.b()));
  w.field("nvdimm", nv.close());
  w.field("energy", array_of(result.energy, energy_row_json));
  ObjectWriter wear;
  wear.field("lifetime_fraction_used",
             num(result.wear.lifetime_fraction_used));
  wear.field("projected_lifetime", num(result.wear.projected_lifetime.sec()));
  wear.field("observed_write_rate",
             num(result.wear.observed_write_rate.value()));
  w.field("wear", wear.close());
  std::string events = "[";
  for (int i = 0; i < metrics::kNumSysEvents; ++i) {
    if (i) events += ',';
    events += num(result.events.values[static_cast<std::size_t>(i)]);
  }
  w.field("events", events + "]");
  ObjectWriter ti;
  ti.field("epochs", std::to_string(result.tiering.epochs));
  ti.field("promotions", std::to_string(result.tiering.promotions));
  ti.field("demotions", std::to_string(result.tiering.demotions));
  ti.field("hint_faults", std::to_string(result.tiering.hint_faults));
  ti.field("bytes_promoted", num(result.tiering.bytes_promoted.b()));
  ti.field("bytes_demoted", num(result.tiering.bytes_demoted.b()));
  ti.field("nvm_bytes_written", num(result.tiering.nvm_bytes_written.b()));
  ti.field("nvm_write_energy", num(result.tiering.nvm_write_energy.j()));
  ti.field("migration_seconds", num(result.tiering.migration_seconds));
  ti.field("overhead_seconds", num(result.tiering.overhead_seconds));
  w.field("tiering", ti.close());
  ObjectWriter fa;
  fa.field("crashes", std::to_string(result.fault.crashes));
  fa.field("tier_offline_events",
           std::to_string(result.fault.tier_offline_events));
  fa.field("uce_events", std::to_string(result.fault.uce_events));
  fa.field("bw_collapses", std::to_string(result.fault.bw_collapses));
  fa.field("stragglers", std::to_string(result.fault.stragglers));
  fa.field("lost_cache_blocks",
           std::to_string(result.fault.lost_cache_blocks));
  fa.field("lost_shuffle_outputs",
           std::to_string(result.fault.lost_shuffle_outputs));
  fa.field("task_failures", std::to_string(result.fault.task_failures));
  fa.field("retries", std::to_string(result.fault.retries));
  fa.field("recomputed_map_tasks",
           std::to_string(result.fault.recomputed_map_tasks));
  fa.field("speculative_launches",
           std::to_string(result.fault.speculative_launches));
  fa.field("speculative_wins",
           std::to_string(result.fault.speculative_wins));
  fa.field("rerouted_requests",
           std::to_string(result.fault.rerouted_requests));
  fa.field("rerouted_bytes", num(result.fault.rerouted_bytes.b()));
  fa.field("backoff_wait_seconds", num(result.fault.backoff_wait_seconds));
  w.field("fault", fa.close());
  ObjectWriter co;
  std::string kernels = "[";
  for (int i = 0; i < columnar::kNumKernelKinds; ++i) {
    const auto& k = result.columnar.kernels[static_cast<std::size_t>(i)];
    if (i) kernels += ',';
    ObjectWriter kw;
    kw.field("kind", quote(columnar::to_string(
                         static_cast<columnar::KernelKind>(i))));
    kw.field("stream", quote(columnar::kernel_stream_label(
                           static_cast<columnar::KernelKind>(i))));
    kw.field("invocations", std::to_string(k.invocations));
    kw.field("rows_in", std::to_string(k.rows_in));
    kw.field("rows_out", std::to_string(k.rows_out));
    kw.field("bytes_read", num(k.bytes_read.b()));
    kw.field("bytes_written", num(k.bytes_written.b()));
    kernels += kw.close();
  }
  co.field("kernels", kernels + "]");
  co.field("queries", std::to_string(result.columnar.queries));
  co.field("stages_planned", std::to_string(result.columnar.stages_planned));
  co.field("batches", std::to_string(result.columnar.batches));
  co.field("regions", std::to_string(result.columnar.regions));
  co.field("region_bytes", num(result.columnar.region_bytes.b()));
  co.field("arena_leases", std::to_string(result.columnar.arena_leases));
  co.field("arena_high_water", num(result.columnar.arena_high_water.b()));
  w.field("columnar", co.close());
  ObjectWriter df;
  df.field("datanodes_lost", std::to_string(result.dfs.datanodes_lost));
  df.field("racks_lost", std::to_string(result.dfs.racks_lost));
  df.field("racks_recovered", std::to_string(result.dfs.racks_recovered));
  df.field("chunks_lost", std::to_string(result.dfs.chunks_lost));
  df.field("chunks_unreadable", std::to_string(result.dfs.chunks_unreadable));
  df.field("degraded_reads", std::to_string(result.dfs.degraded_reads));
  df.field("reconstructed_chunks",
           std::to_string(result.dfs.reconstructed_chunks));
  df.field("repair_waves", std::to_string(result.dfs.repair_waves));
  df.field("chunks_repaired", std::to_string(result.dfs.chunks_repaired));
  df.field("repair_tasks_cancelled",
           std::to_string(result.dfs.repair_tasks_cancelled));
  df.field("repair_read_bytes", num(result.dfs.repair_read_bytes.b()));
  df.field("repair_write_bytes", num(result.dfs.repair_write_bytes.b()));
  df.field("repair_seconds", num(result.dfs.repair_seconds));
  w.field("dfs", df.close());
  w.field("valid", result.valid ? "true" : "false");
  w.field("validation", quote(result.validation));
  w.field("failed", result.failed ? "true" : "false");
  w.field("error", quote(result.error));
  w.field("bound_node", std::to_string(result.bound_node));
  return w.close();
}

bool result_from_json(const std::string& json, RunResult* out,
                      std::string* error) {
  try {
    const Value v = Parser(json).parse();
    RunResult r;
    r.config = config_from(v.at("config"));
    r.exec_time = Duration::seconds(v.at("exec_time").as_double());
    r.total_cost = task_cost_from(v.at("total_cost"));
    r.jobs = v.at("jobs").as_u64();
    r.stages = v.at("stages").as_u64();
    r.tasks = v.at("tasks").as_u64();
    for (const Value& t : v.at("traffic").array) {
      mem::NodeTraffic traffic;
      traffic.read_bytes = Bytes::of(t.at("read_bytes").as_double());
      traffic.write_bytes = Bytes::of(t.at("write_bytes").as_double());
      traffic.read_accesses = t.at("read_accesses").as_u64();
      traffic.write_accesses = t.at("write_accesses").as_u64();
      r.traffic.push_back(traffic);
    }
    const Value& nv = v.at("nvdimm");
    r.nvdimm.node_name = nv.at("node_name").text;
    r.nvdimm.dimms = nv.at("dimms").as_int();
    r.nvdimm.media_reads = nv.at("media_reads").as_u64();
    r.nvdimm.media_writes = nv.at("media_writes").as_u64();
    r.nvdimm.demand_read_bytes =
        Bytes::of(nv.at("demand_read_bytes").as_double());
    r.nvdimm.demand_write_bytes =
        Bytes::of(nv.at("demand_write_bytes").as_double());
    for (const Value& e : v.at("energy").array) {
      workloads::NodeEnergyRow row;
      row.node = e.at("node").text;
      row.kind = static_cast<mem::TechKind>(e.at("kind").as_int());
      row.dimms = e.at("dimms").as_int();
      row.report.dynamic_energy =
          Energy::joules(e.at("dynamic_energy").as_double());
      row.report.static_energy =
          Energy::joules(e.at("static_energy").as_double());
      row.report.total = Energy::joules(e.at("total").as_double());
      row.report.average_power =
          Power::watts(e.at("average_power").as_double());
      row.report.per_dimm = Energy::joules(e.at("per_dimm").as_double());
      r.energy.push_back(row);
    }
    const Value& wear = v.at("wear");
    r.wear.lifetime_fraction_used =
        wear.at("lifetime_fraction_used").as_double();
    r.wear.projected_lifetime =
        Duration::seconds(wear.at("projected_lifetime").as_double());
    r.wear.observed_write_rate =
        Bandwidth::bytes_per_sec(wear.at("observed_write_rate").as_double());
    const Value& events = v.at("events");
    TSX_CHECK(events.array.size() ==
                  static_cast<std::size_t>(metrics::kNumSysEvents),
              "event count mismatch");
    for (std::size_t i = 0; i < events.array.size(); ++i)
      r.events.values[i] = events.array[i].as_double();
    const Value& ti = v.at("tiering");
    r.tiering.epochs = ti.at("epochs").as_u64();
    r.tiering.promotions = ti.at("promotions").as_u64();
    r.tiering.demotions = ti.at("demotions").as_u64();
    r.tiering.hint_faults = ti.at("hint_faults").as_u64();
    r.tiering.bytes_promoted = Bytes::of(ti.at("bytes_promoted").as_double());
    r.tiering.bytes_demoted = Bytes::of(ti.at("bytes_demoted").as_double());
    r.tiering.nvm_bytes_written =
        Bytes::of(ti.at("nvm_bytes_written").as_double());
    r.tiering.nvm_write_energy =
        Energy::joules(ti.at("nvm_write_energy").as_double());
    r.tiering.migration_seconds = ti.at("migration_seconds").as_double();
    r.tiering.overhead_seconds = ti.at("overhead_seconds").as_double();
    const Value& fa = v.at("fault");
    r.fault.crashes = fa.at("crashes").as_u64();
    r.fault.tier_offline_events = fa.at("tier_offline_events").as_u64();
    r.fault.uce_events = fa.at("uce_events").as_u64();
    r.fault.bw_collapses = fa.at("bw_collapses").as_u64();
    r.fault.stragglers = fa.at("stragglers").as_u64();
    r.fault.lost_cache_blocks = fa.at("lost_cache_blocks").as_u64();
    r.fault.lost_shuffle_outputs = fa.at("lost_shuffle_outputs").as_u64();
    r.fault.task_failures = fa.at("task_failures").as_u64();
    r.fault.retries = fa.at("retries").as_u64();
    r.fault.recomputed_map_tasks = fa.at("recomputed_map_tasks").as_u64();
    r.fault.speculative_launches = fa.at("speculative_launches").as_u64();
    r.fault.speculative_wins = fa.at("speculative_wins").as_u64();
    r.fault.rerouted_requests = fa.at("rerouted_requests").as_u64();
    r.fault.rerouted_bytes = Bytes::of(fa.at("rerouted_bytes").as_double());
    r.fault.backoff_wait_seconds = fa.at("backoff_wait_seconds").as_double();
    const Value& co = v.at("columnar");
    const Value& kernels = co.at("kernels");
    TSX_CHECK(kernels.array.size() ==
                  static_cast<std::size_t>(columnar::kNumKernelKinds),
              "kernel kind count mismatch");
    for (std::size_t i = 0; i < kernels.array.size(); ++i) {
      const Value& kw = kernels.array[i];
      columnar::KernelStats& k = r.columnar.kernels[i];
      k.invocations = kw.at("invocations").as_u64();
      k.rows_in = kw.at("rows_in").as_u64();
      k.rows_out = kw.at("rows_out").as_u64();
      k.bytes_read = Bytes::of(kw.at("bytes_read").as_double());
      k.bytes_written = Bytes::of(kw.at("bytes_written").as_double());
    }
    r.columnar.queries = co.at("queries").as_u64();
    r.columnar.stages_planned = co.at("stages_planned").as_u64();
    r.columnar.batches = co.at("batches").as_u64();
    r.columnar.regions = co.at("regions").as_u64();
    r.columnar.region_bytes = Bytes::of(co.at("region_bytes").as_double());
    r.columnar.arena_leases = co.at("arena_leases").as_u64();
    r.columnar.arena_high_water =
        Bytes::of(co.at("arena_high_water").as_double());
    const Value& df = v.at("dfs");
    r.dfs.datanodes_lost = df.at("datanodes_lost").as_u64();
    r.dfs.racks_lost = df.at("racks_lost").as_u64();
    r.dfs.racks_recovered = df.at("racks_recovered").as_u64();
    r.dfs.chunks_lost = df.at("chunks_lost").as_u64();
    r.dfs.chunks_unreadable = df.at("chunks_unreadable").as_u64();
    r.dfs.degraded_reads = df.at("degraded_reads").as_u64();
    r.dfs.reconstructed_chunks = df.at("reconstructed_chunks").as_u64();
    r.dfs.repair_waves = df.at("repair_waves").as_u64();
    r.dfs.chunks_repaired = df.at("chunks_repaired").as_u64();
    r.dfs.repair_tasks_cancelled = df.at("repair_tasks_cancelled").as_u64();
    r.dfs.repair_read_bytes =
        Bytes::of(df.at("repair_read_bytes").as_double());
    r.dfs.repair_write_bytes =
        Bytes::of(df.at("repair_write_bytes").as_double());
    r.dfs.repair_seconds = df.at("repair_seconds").as_double();
    r.valid = v.at("valid").as_bool();
    r.validation = v.at("validation").text;
    r.failed = v.at("failed").as_bool();
    r.error = v.at("error").text;
    r.bound_node = v.at("bound_node").as_int();
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
