// Hierarchical virtual-time spans.
//
// The observability plane models a run as a tree of spans:
//
//   sweep -> run -> job -> stage -> task
//
// plus out-of-band spans hanging off the driver stack (tiering migrations,
// service-level job lifetimes) and zero-length instants (fault injections,
// preemptions). Every id is an index+1 into the owning Recorder's span
// vector; 0 means "no span" and is the universal disabled value — engine
// code guards each emit with one `span != 0` branch.
//
// All timestamps are virtual time, so a trace is a pure function of the
// RunConfig: bit-identical across replays, thread counts and machines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "obs/attribution.hpp"

namespace tsx::obs {

/// Opaque span handle; 0 = none.
using SpanId = std::uint64_t;

enum class SpanKind {
  kSweep,      ///< a multi-run sweep (synthesized at export time)
  kRun,        ///< one run_workload invocation
  kJob,        ///< one DAGScheduler::run_job
  kStage,      ///< one barrier stage
  kTask,       ///< one task *launch* (retries/speculation = new spans)
  kMigration,  ///< one tiering page-migration copy
  kService,    ///< one service-layer job lifetime (submit -> finish)
  kInstant,    ///< zero-length marker (injection, preemption, ...)
};

const char* to_string(SpanKind kind);

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  SpanKind kind = SpanKind::kInstant;
  std::string name;      ///< "stage:shuffle-map:edges", "task:3.17#0", ...
  std::string category;  ///< dotted family: "spark.stage", "tiering.promote"
  Duration start;
  Duration end;
  bool open = false;
  /// Hidden from exporters by the category filter; still fully accounted
  /// (attribution and rollups ignore visibility).
  bool visible = true;
  /// Export lane (Chrome tid): 0 = driver, 1+N = executor N for tasks.
  std::int64_t track = 0;

  /// Itemized simulated time. For stage/task spans the buckets sum exactly
  /// to duration() (the invariant Recorder enforces at close).
  TimeAttribution attr;

  /// Small typed payload rendered into the exporters' args object.
  std::vector<std::pair<std::string, std::string>> args;

  Duration duration() const { return end - start; }
};

}  // namespace tsx::obs
