#include "fault/options.hpp"

#include <string>

namespace tsx::fault {

std::vector<Diagnostic> FaultConfig::validate() const {
  std::vector<Diagnostic> issues;
  const auto bad = [&issues](const std::string& field,
                             const std::string& message) {
    issues.push_back({field, message});
  };
  if (executor_crashes < 0)
    bad("executor_crashes", "crash count cannot be negative");
  if (!(crash_window_s >= 0.0))
    bad("crash_window_s", "crash window cannot be negative");
  if (!(restart_delay_s >= 0.0))
    bad("restart_delay_s", "restart delay cannot be negative");
  if (offline_tier < -1 || offline_tier > 3)
    bad("offline_tier", "tier index must be -1 (never) or 0-3");
  if (!(uce_per_gib >= 0.0))
    bad("uce_per_gib", "UCE rate cannot be negative");
  if (!(bw_collapse_factor > 0.0 && bw_collapse_factor <= 1.0))
    bad("bw_collapse_factor", "collapse multiplier must lie in (0, 1]");
  if (datanode_crashes < 0)
    bad("datanode_crashes", "datanode crash count cannot be negative");
  if (!(datanode_crash_window_s >= 0.0))
    bad("datanode_crash_window_s", "crash window cannot be negative");
  if (rack_offline < -1)
    bad("rack_offline", "rack index must be -1 (never) or >= 0");
  if (rack_offline >= 0 && rack_offline_at_s < 0.0)
    bad("rack_offline_at_s",
        "a rack partition needs a non-negative injection time");
  if (!(straggler_prob >= 0.0 && straggler_prob <= 1.0))
    bad("straggler_prob", "straggle probability must lie in [0, 1]");
  if (!(straggler_factor > 1.0))
    bad("straggler_factor", "a straggler must be slower than 1x");
  return issues;
}

}  // namespace tsx::fault
