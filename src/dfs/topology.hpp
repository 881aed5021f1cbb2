// Cluster topology: racks of datanodes, each a failure domain.
//
// A Datanode is the unit of chunk placement and of loss (fault drills kill
// single nodes or whole racks). Node ids are dense — rack r, slot s maps to
// id r * nodes_per_rack + s — so placement and repair schedules stay pure
// functions of the configuration.
#pragma once

#include <vector>

namespace tsx::dfs {

struct Datanode {
  int id = 0;
  int rack = 0;
  bool online = true;
};

class Cluster {
 public:
  Cluster(int racks, int nodes_per_rack);

  std::size_t size() const { return nodes_.size(); }
  int racks() const { return racks_; }
  int nodes_per_rack() const { return nodes_per_rack_; }

  const Datanode& node(int id) const { return nodes_.at(id); }
  int rack_of(int id) const { return nodes_.at(id).rack; }
  bool online(int id) const { return nodes_.at(id).online; }
  void set_online(int id, bool online) { nodes_.at(id).online = online; }

  /// Node ids in `rack`, ascending.
  std::vector<int> rack_members(int rack) const;
  /// Online node ids across the cluster, ascending.
  std::vector<int> online_nodes() const;
  std::size_t online_count() const;

 private:
  int racks_;
  int nodes_per_rack_;
  std::vector<Datanode> nodes_;
};

}  // namespace tsx::dfs
