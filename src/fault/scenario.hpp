// Named fault scenarios — the drill book.
//
// Each scenario is a curated FaultConfig exercising one recovery path end
// to end; `chaos` combines them. Benches and examples reference scenarios
// by name so the acceptance drills ("one executor crash mid-stage", "one
// NVM DIMM offline", "one straggler triggering speculation") stay in one
// place.
#pragma once

#include <string>
#include <vector>

#include "dfs/options.hpp"
#include "fault/options.hpp"

namespace tsx::fault {

/// Known names: "none", "crash", "dimm-offline", "straggler", "bw-collapse",
/// "uce", "datanode-loss", "rack-offline", "dimm-datanode", "crash-rack",
/// "chaos". Throws on unknown names. The storage scenarios (datanode-loss,
/// rack-offline and the compounds) additionally need a multi-node
/// RunConfig::dfs with redundancy, such as storage_drill_dfs() —
/// RunConfig::validate enforces the pairing.
FaultConfig scenario(const std::string& name);

/// Every name `scenario` accepts, in presentation order.
std::vector<std::string> scenario_names();

/// The DFS cluster the storage drills run on: RS(6,3) over 3 racks of 4
/// datanodes (12 nodes: stripes cover 9, leaving repair spares).
dfs::DfsConfig storage_drill_dfs();

}  // namespace tsx::fault
