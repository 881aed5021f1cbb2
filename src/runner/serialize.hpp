// Lossless RunResult serialization.
//
// A result must round-trip *exactly*: its JSON is the byte form the
// identity gates compare (`results_identical`, bench_perf), so a reader
// must get back every field to the last digit. The bytes come from the one
// JSON codec (core/json.hpp):
// %.17g doubles, full decimal counters, and the inf/nan extension tokens.
// One visitor lists every RunResult field; `to_json` runs it as a writer
// and `result_from_json` as a reader, and the config section comes from
// the RunConfig field table (workloads/runner.hpp). The loader is strict:
// a missing field, a number with stray text, out of its field's range or
// empty, an enum index its codec rejects, and a boolean other than
// true/false (1/0 in the config) reject the whole result with a diagnostic
// naming the field.
#pragma once

#include <string>

#include "workloads/runner.hpp"

namespace tsx::runner {

/// One run as a single-line JSON object (config + every measured field).
std::string to_json(const workloads::RunResult& result);

/// Inverse of `to_json`. Returns false (leaving `*out` unspecified) on
/// malformed input, or on a config that `RunConfig::validate` rejects,
/// instead of throwing, and then stores the diagnostic, which names the
/// offending field, in `*error` when it is given.
bool result_from_json(const std::string& json, workloads::RunResult* out,
                      std::string* error = nullptr);

/// Exact-equality helper built on the canonical serialization: true iff the
/// two results serialize to the same bytes. This is the "bit-identical"
/// contract the parallel runner guarantees against the serial path.
bool results_identical(const workloads::RunResult& a,
                       const workloads::RunResult& b);

}  // namespace tsx::runner
