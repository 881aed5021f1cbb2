#include "fault/scenario.hpp"

#include "core/error.hpp"

namespace tsx::fault {

FaultConfig scenario(const std::string& name) {
  FaultConfig config;
  if (name == "none") return config;

  config.enabled = true;
  if (name == "crash") {
    // One executor dies mid-stage; its cached blocks and map outputs are
    // recomputed through the lineage and its tasks retried elsewhere.
    config.executor_crashes = 1;
    config.crash_offset_s = 2.0;
    config.crash_window_s = 10.0;
    config.restart_delay_s = 3.0;
  } else if (name == "dimm-offline") {
    // The 4-DIMM NVM group (Tier 2) goes dark early in the run; traffic
    // degrades to the surviving tiers with the reroute itemized.
    config.offline_tier = 2;
    config.offline_at_s = 3.0;
  } else if (name == "straggler") {
    // A few percent of first launches drag 6x; speculation re-launches
    // them once most of the stage has finished.
    config.straggler_prob = 0.04;
    config.straggler_factor = 6.0;
  } else if (name == "bw-collapse") {
    // The bound tier's channel transiently collapses to 10% capacity —
    // a thermal event or a patrol scrub storm.
    config.bw_collapse_at_s = 2.0;
    config.bw_collapse_duration_s = 3.0;
    config.bw_collapse_factor = 0.1;
  } else if (name == "uce") {
    // Media wear surfaces uncorrectable errors as write churn accumulates;
    // each poisons a cached block.
    config.uce_per_gib = 0.02;
  } else if (name == "datanode-loss") {
    // One DFS datanode dies for good; the repair pipeline re-creates its
    // chunks from the surviving replicas / RS survivors in the background.
    // Needs a multi-node DfsConfig with redundancy (RunConfig::validate
    // enforces the pairing).
    config.datanode_crashes = 1;
    config.datanode_crash_at_s = 2.5;
    config.datanode_crash_window_s = 0.0;
  } else if (name == "rack-offline") {
    // A whole rack partitions off mid-run (disks intact) and heals later;
    // reads reconstruct through the codec meanwhile and repair races the
    // heal.
    config.rack_offline = 0;
    config.rack_offline_at_s = 2.5;
    config.rack_recover_after_s = 1.5;
  } else if (name == "dimm-datanode") {
    // Compound drill: the NVM DIMM group dies *and* a datanode is lost —
    // lineage recomputation runs against a degraded DFS.
    config.offline_tier = 2;
    config.offline_at_s = 3.0;
    config.datanode_crashes = 1;
    config.datanode_crash_at_s = 2.5;
    config.datanode_crash_window_s = 0.0;
  } else if (name == "crash-rack") {
    // Compound drill: an executor crashes while a rack is partitioned —
    // retries and recomputation read the DFS through the codec until the
    // partition heals.
    config.executor_crashes = 1;
    config.crash_offset_s = 2.6;
    config.crash_window_s = 0.2;
    config.restart_delay_s = 0.5;
    config.rack_offline = 0;
    config.rack_offline_at_s = 2.5;
    config.rack_recover_after_s = 2.0;
  } else if (name == "chaos") {
    config.executor_crashes = 2;
    config.crash_offset_s = 2.0;
    config.crash_window_s = 20.0;
    config.restart_delay_s = 3.0;
    config.offline_tier = 3;
    config.offline_at_s = 6.0;
    config.straggler_prob = 0.02;
    config.straggler_factor = 5.0;
    config.bw_collapse_at_s = 4.0;
    config.bw_collapse_duration_s = 2.0;
    config.bw_collapse_factor = 0.2;
    config.uce_per_gib = 0.01;
  } else {
    TSX_FAIL("unknown fault scenario: " + name);
  }
  return config;
}

std::vector<std::string> scenario_names() {
  return {"none",          "crash",        "dimm-offline",
          "straggler",     "bw-collapse",  "uce",
          "datanode-loss", "rack-offline", "dimm-datanode",
          "crash-rack",    "chaos"};
}

dfs::DfsConfig storage_drill_dfs() {
  dfs::DfsConfig d;
  d.codec = dfs::CodecKind::kRs;
  d.rs_k = 6;
  d.rs_m = 3;
  d.racks = 3;
  d.nodes_per_rack = 4;
  return d;
}

}  // namespace tsx::fault
