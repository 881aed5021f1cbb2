#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "core/error.hpp"
#include "core/json.hpp"
#include "core/strings.hpp"

namespace tsx::obs {

namespace {

void write_args(json::Writer& w, const Span& span) {
  w.begin_object();
  w.field("span_id", span.id);
  if (span.parent != 0) w.field("parent", span.parent);
  for (const auto& [k, v] : span.args) w.field(k, v);
  if (span.attr.sum() != 0.0) {
    w.key("attr").begin_object();
    for (int b = 0; b < kNumBuckets; ++b) {
      const double s = span.attr.seconds[static_cast<std::size_t>(b)];
      if (s != 0.0) w.field(to_string(static_cast<Bucket>(b)), s);
    }
    w.end_object();
  }
  w.end_object();
}

void append_run_events(std::string& out, const Recorder& recorder, int pid,
                       const std::string& process_name, bool& any) {
  // One event object per line, each through the shared writer.
  const auto event = [&]() {
    if (any) out += ",\n";
    any = true;
    return json::Writer(out).begin_object();
  };
  const auto metadata = [&](const char* name, std::int64_t tid,
                            const std::string& value) {
    json::Writer w = event();
    w.field("ph", "M").field("name", name).field("pid", pid).field("tid", tid);
    w.key("args").begin_object().field("name", value).end_object();
    w.end_object();
  };
  metadata("process_name", 0, process_name);
  // Name every track that appears; track 0 is the driver, 1+N executor N.
  std::vector<std::int64_t> tracks;
  for (const Span& span : recorder.spans()) {
    if (!span.visible) continue;
    if (std::find(tracks.begin(), tracks.end(), span.track) == tracks.end())
      tracks.push_back(span.track);
  }
  std::sort(tracks.begin(), tracks.end());
  for (const std::int64_t t : tracks)
    metadata("thread_name", t,
             t == 0 ? "driver"
                    : strfmt("executor %lld", static_cast<long long>(t - 1)));
  for (const Span& span : recorder.spans()) {
    if (!span.visible || span.open) continue;
    const bool instant = span.kind == SpanKind::kInstant;
    json::Writer w = event();
    instant ? w.field("ph", "i").field("s", "t") : w.field("ph", "X");
    w.field("name", span.name).field("cat", span.category);
    w.field("ts", span.start.us());
    if (!instant) w.field("dur", span.duration().us());
    w.field("pid", pid).field("tid", span.track);
    write_args(w.key("args"), span);
    w.end_object();
  }
}

}  // namespace

std::string chrome_trace_json(const Recorder& recorder,
                              const std::string& process_name) {
  return chrome_trace_json({SweepRun{process_name, &recorder}});
}

std::string chrome_trace_json(const std::vector<SweepRun>& runs) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool any = false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].recorder == nullptr) continue;
    append_run_events(out, *runs[i].recorder, static_cast<int>(i) + 1,
                      runs[i].label, any);
  }
  out += "\n]}\n";
  return out;
}

std::string metrics_jsonl(const MetricsRegistry& metrics) {
  std::string out;
  for (const MetricsRegistry::Row& row : metrics.snapshot()) {
    LabelSet sorted = row.labels;
    std::sort(sorted.kv.begin(), sorted.kv.end());
    json::Writer w(out);
    w.begin_object().field("name", row.name).field("kind", to_string(row.kind));
    w.key("labels").begin_object();
    for (const auto& [k, v] : sorted.kv) w.field(k, v);
    w.end_object();
    if (row.kind == MetricKind::kHistogram) {
      const HistogramCell& c = *row.cell;
      w.field("count", c.count).field("sum", c.sum);
      w.field("min", c.min).field("max", c.max);
      w.field("p50", c.p50()).field("p95", c.p95()).field("p99", c.p99());
    } else {
      w.field("value", row.value);
    }
    w.end_object();
    out += '\n';
  }
  return out;
}

std::string stage_attribution_table(const Recorder& recorder) {
  static const char* kHeads[] = {"queue", "compute", "disk",  "dram", "nvm",
                                 "shuffle", "migr",  "recov", "other"};
  std::ostringstream os;
  os << pad_right("stage", 28) << pad_left("dur_s", 10);
  for (const char* h : kHeads) os << pad_left(h, 9);
  os << '\n';
  const auto row = [&](const std::string& name, const Span& span) {
    os << pad_right(name.substr(0, 28), 28)
       << pad_left(strfmt("%.3f", span.duration().sec()), 10);
    for (int b = 0; b < kNumBuckets; ++b)
      os << pad_left(
          strfmt("%.3f", span.attr.seconds[static_cast<std::size_t>(b)]), 9);
    os << '\n';
  };
  for (const Span& span : recorder.spans()) {
    if (span.kind != SpanKind::kStage || span.open) continue;
    row(span.name, span);
  }
  for (const Span& span : recorder.spans()) {
    if (span.kind != SpanKind::kJob || span.open) continue;
    row("[" + span.name + "]", span);
  }
  if (const Span* run = recorder.find(recorder.run_span());
      run != nullptr && !run->open)
    row("[run]", *run);
  return os.str();
}

std::string hottest_spans_table(const Recorder& recorder, std::size_t n) {
  std::vector<const Span*> picks;
  for (const Span& span : recorder.spans()) {
    if (span.open || span.kind == SpanKind::kRun ||
        span.kind == SpanKind::kSweep || span.kind == SpanKind::kInstant)
      continue;
    picks.push_back(&span);
  }
  std::sort(picks.begin(), picks.end(), [](const Span* a, const Span* b) {
    if (a->duration().sec() != b->duration().sec())
      return a->duration().sec() > b->duration().sec();
    return a->id < b->id;
  });
  if (picks.size() > n) picks.resize(n);
  std::ostringstream os;
  os << pad_left("#", 4) << pad_right("  kind", 12) << pad_right("name", 34)
     << pad_left("start_s", 12) << pad_left("dur_s", 10)
     << pad_right("  top bucket", 14) << '\n';
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const Span& s = *picks[i];
    os << pad_left(std::to_string(i + 1), 4)
       << pad_right(std::string("  ") + to_string(s.kind), 12)
       << pad_right(s.name.substr(0, 33), 34)
       << pad_left(strfmt("%.3f", s.start.sec()), 12)
       << pad_left(strfmt("%.3f", s.duration().sec()), 10)
       << pad_right(std::string("  ") + to_string(s.attr.largest()), 14)
       << '\n';
  }
  return os.str();
}

// ---- validation ------------------------------------------------------------

TraceValidation validate_chrome_trace(const std::string& json) {
  using Kind = json::Value::Kind;
  TraceValidation out;
  const auto fail = [&](std::string message) {
    out.ok = false;
    if (out.errors.size() < 32) out.errors.push_back(std::move(message));
  };
  // A finite number, or nothing (absent, not a number, or non-finite).
  const auto finite = [](const json::Value* v) -> std::optional<double> {
    if (v == nullptr || !v->is(Kind::kNumber)) return std::nullopt;
    try {
      const double x = v->as_double();
      if (std::isfinite(x)) return x;
    } catch (const Error&) {
    }
    return std::nullopt;
  };
  json::Value doc;
  try {
    doc = json::parse(json);
  } catch (const Error& e) {
    fail(std::string("parse error: ") + e.what());
    return out;
  }
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is(Kind::kArray)) {
    fail("missing traceEvents array");
    return out;
  }
  for (std::size_t i = 0; i < events->items().size(); ++i) {
    const json::Value& e = events->items()[i];
    // Named only when something fails: most traces have no failure.
    const auto where = [i] { return strfmt("event %zu", i); };
    if (!e.is(Kind::kObject)) {
      fail(where() + ": not an object");
      continue;
    }
    ++out.events;
    const json::Value* ph = e.find("ph");
    if (ph == nullptr || !ph->is(Kind::kString)) {
      fail(where() + ": missing ph");
      continue;
    }
    const std::string_view phase = ph->text();
    if (phase != "X" && phase != "i" && phase != "M") {
      fail(where() + ": unknown phase '" + std::string(phase) + "'");
      continue;
    }
    const json::Value* name = e.find("name");
    if (name == nullptr || !name->is(Kind::kString) || name->text().empty())
      fail(where() + ": missing name");
    for (const char* key : {"pid", "tid"})
      if (!finite(e.find(key)))
        fail(where() + strfmt(": missing numeric %s", key));
    if (phase == "M") continue;  // metadata has no timestamps
    const std::optional<double> ts = finite(e.find("ts"));
    if (!ts || *ts < 0.0) {
      fail(where() + ": missing finite non-negative ts");
      continue;
    }
    if (phase != "X") continue;
    const std::optional<double> dur = finite(e.find("dur"));
    if (!dur || *dur < 0.0) {
      fail(where() + ": X event missing finite non-negative dur");
      continue;
    }
    const json::Value* args = e.find("args");
    const json::Value* attr = args != nullptr ? args->find("attr") : nullptr;
    if (attr != nullptr) {
      if (!attr->is(Kind::kObject)) {
        fail(where() + ": attr is not an object");
        continue;
      }
      double sum = 0.0;
      for (const json::Value& bucket : attr->items()) {
        const std::optional<double> seconds = finite(&bucket);
        if (!seconds) {
          fail(where() + ": attr." + bucket.name() + " is not a finite number");
          continue;
        }
        sum += *seconds;
      }
      const double dur_s = *dur * 1e-6;
      // The recorder's invariant is exact in fixed bucket order; the
      // document order here can differ, so allow rounding slack.
      const double slack = 1e-9 * std::max(1.0, dur_s);
      if (sum - dur_s > slack || dur_s - sum > slack)
        fail(where() + strfmt(": attr sums to %.12g, dur is %.12g s", sum,
                              dur_s));
    }
  }
  if (out.events == 0) fail("trace has no events");
  return out;
}

}  // namespace tsx::obs
