#include "tiering/options.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace tsx::tiering {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic: return "static";
    case PolicyKind::kLfuPromote: return "lfu-promote";
    case PolicyKind::kWatermark: return "watermark";
  }
  TSX_FAIL("unknown policy kind");
}

PolicyKind policy_from_index(int i) {
  const auto kind = static_cast<PolicyKind>(i);
  TSX_CHECK(std::find(kAllPolicies.begin(), kAllPolicies.end(), kind) !=
                kAllPolicies.end(),
            "policy index out of range");
  return kind;
}

PolicyKind policy_from_name(const std::string& name) {
  for (const PolicyKind kind : kAllPolicies)
    if (to_string(kind) == name) return kind;
  TSX_FAIL("unknown policy name: " + name);
}

std::vector<Diagnostic> TieringConfig::validate() const {
  std::vector<Diagnostic> issues;
  if (!(epoch_ms > 0.0))
    issues.push_back({"epoch_ms", "epoch length must be positive"});
  if (!(fast_capacity_gib > 0.0))
    issues.push_back(
        {"fast_capacity_gib", "the DRAM carve-out must be positive"});
  return issues;
}

}  // namespace tsx::tiering
