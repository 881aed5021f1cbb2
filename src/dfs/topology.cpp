#include "dfs/topology.hpp"

#include "core/error.hpp"

namespace tsx::dfs {

Cluster::Cluster(int racks, int nodes_per_rack)
    : racks_(racks), nodes_per_rack_(nodes_per_rack) {
  TSX_CHECK(racks >= 1, "cluster needs at least one rack");
  TSX_CHECK(nodes_per_rack >= 1, "rack needs at least one datanode");
  nodes_.reserve(static_cast<std::size_t>(racks) * nodes_per_rack);
  for (int r = 0; r < racks; ++r)
    for (int s = 0; s < nodes_per_rack; ++s)
      nodes_.push_back(Datanode{r * nodes_per_rack + s, r, true});
}

std::vector<int> Cluster::rack_members(int rack) const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(nodes_per_rack_));
  for (const Datanode& n : nodes_)
    if (n.rack == rack) out.push_back(n.id);
  return out;
}

std::vector<int> Cluster::online_nodes() const {
  std::vector<int> out;
  out.reserve(nodes_.size());
  for (const Datanode& n : nodes_)
    if (n.online) out.push_back(n.id);
  return out;
}

std::size_t Cluster::online_count() const {
  std::size_t n = 0;
  for (const Datanode& node : nodes_)
    if (node.online) ++n;
  return n;
}

}  // namespace tsx::dfs
