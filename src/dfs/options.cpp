#include "dfs/options.hpp"

#include "core/error.hpp"

namespace tsx::dfs {

std::string to_string(CodecKind codec) {
  switch (codec) {
    case CodecKind::kReplication:
      return "replication";
    case CodecKind::kRs:
      return "rs";
  }
  return "unknown";
}

CodecKind codec_from_index(int i) {
  TSX_CHECK(i >= 0 && i <= 1, "codec index out of range");
  return static_cast<CodecKind>(i);
}

int DfsConfig::stripe_width() const {
  return codec == CodecKind::kRs ? rs_k + rs_m : replication;
}

int DfsConfig::data_chunks() const {
  return codec == CodecKind::kRs ? rs_k : 1;
}

double DfsConfig::storage_overhead() const {
  if (codec == CodecKind::kRs)
    return static_cast<double>(rs_k + rs_m) / static_cast<double>(rs_k);
  return static_cast<double>(replication);
}

std::vector<Diagnostic> DfsConfig::validate() const {
  std::vector<Diagnostic> issues;
  const auto bad = [&issues](const std::string& field,
                             const std::string& message) {
    issues.push_back({field, message});
  };
  if (replication < 1) bad("replication", "replication must be >= 1");
  if (rs_k < 1) bad("rs_k", "RS stripes need at least one data chunk");
  if (rs_m < 1) bad("rs_m", "RS stripes need at least one parity chunk");
  if (rs_k + rs_m > 255)
    bad("rs_k", "GF(256) RS supports stripes of at most 255 chunks");
  if (racks < 1) bad("racks", "the cluster needs at least one rack");
  if (nodes_per_rack < 1)
    bad("nodes_per_rack", "each rack needs at least one datanode");
  if (!(block_mib > 0.0)) bad("block_mib", "block size must be positive");
  // Placement needs one distinct node per chunk of a stripe; a stripe wider
  // than the cluster would force co-location and void the failure-domain
  // guarantee.
  if (replication >= 1 && rs_k >= 1 && rs_m >= 1 &&
      stripe_width() > total_nodes())
    bad(codec == CodecKind::kRs ? "rs_k" : "replication",
        "stripe width exceeds the datanode count — two chunks of one "
        "stripe would share a failure domain");
  return issues;
}

}  // namespace tsx::dfs
