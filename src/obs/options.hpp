// Configuration of the observability plane.
//
// ObsConfig is embedded in workloads::RunConfig, so both knobs are part of a
// run's identity: they appear in the canonical config key and the serialized
// config. The default (`enabled = false`) constructs no Recorder at all and
// every engine emit site short-circuits on a null pointer — bit-identical to
// the pre-obs engine. The trace *filter* only changes which spans are visible
// to exporters (attribution stays complete either way), but it is part of
// the identity anyway: a run's artifacts include its exports, and two runs
// that export different traces are different runs. CategoryFilter is the
// parsed form of that spec; the Recorder is its only user.
#pragma once

#include <string>
#include <vector>

#include "core/error.hpp"

namespace tsx::obs {

struct ObsConfig {
  /// Off by default: no Recorder, no spans, no metrics; the engine runs
  /// byte for byte as before.
  bool enabled = false;

  /// Category filter spec for span/instant visibility ("tiering.*,fault.*";
  /// empty = everything), parsed by CategoryFilter.
  std::string trace_filter;

  /// Structured range checks. Empty means valid. Aggregated by
  /// RunConfig::validate with an "obs." field prefix.
  std::vector<Diagnostic> validate() const;

  friend bool operator==(const ObsConfig&, const ObsConfig&) = default;
};

/// Category selector for the recorder: a comma-separated pattern list
/// ("tiering.*,fault.recover"). A trailing ".*" (or a bare trailing "*")
/// makes the pattern a prefix match; anything else matches exactly. The
/// empty filter — and any list containing a lone "*" — matches everything.
/// Parsed once, matched per emit (no allocation on the match path).
class CategoryFilter {
 public:
  CategoryFilter() = default;

  static CategoryFilter parse(const std::string& spec);

  bool matches(const std::string& category) const;
  bool match_all() const { return patterns_.empty(); }

  /// The canonical comma-joined spec the filter was parsed from ("" for
  /// match-all) — what RunConfig hashes.
  const std::string& spec() const { return spec_; }

 private:
  struct Pattern {
    std::string text;  ///< exact category, or prefix when `prefix`
    bool prefix = false;
  };
  std::vector<Pattern> patterns_;  ///< empty = match everything
  std::string spec_;
};

}  // namespace tsx::obs
