#include "net/topology.hpp"

#include "support/error.hpp"

namespace iw::net {

TopologySpec TopologySpec::one_rank_per_node(int nodes) {
  TopologySpec spec;
  spec.ranks = nodes;
  spec.ranks_per_socket = 1;
  spec.sockets_per_node = 1;  // only the first socket is ever occupied
  return spec;
}

TopologySpec TopologySpec::packed(int ranks, int per_socket) {
  TopologySpec spec;
  spec.ranks = ranks;
  spec.ranks_per_socket = per_socket;
  return spec;
}

Topology::Topology(const TopologySpec& spec) { reshape(spec); }

bool Topology::same_shape(const TopologySpec& spec, int per_socket) const {
  return per_socket == per_socket_ &&
         spec.cores_per_socket == spec_.cores_per_socket &&
         spec.sockets_per_node == spec_.sockets_per_node &&
         spec.nodes_per_switch == spec_.nodes_per_switch &&
         spec.switches_per_island == spec_.switches_per_island;
}

void Topology::reshape(const TopologySpec& spec) {
  IW_REQUIRE(spec.ranks > 0, "topology needs at least one rank");
  IW_REQUIRE(spec.cores_per_socket > 0, "cores_per_socket must be positive");
  IW_REQUIRE(spec.sockets_per_node > 0, "sockets_per_node must be positive");
  const int per_socket = spec.ranks_per_socket > 0 ? spec.ranks_per_socket
                                                   : spec.cores_per_socket;
  IW_REQUIRE(per_socket <= spec.cores_per_socket,
             "cannot place more ranks on a socket than it has cores");
  IW_REQUIRE(spec.nodes_per_switch >= 0,
             "nodes_per_switch must be non-negative (0 = flat fabric)");
  IW_REQUIRE(spec.switches_per_island >= 0,
             "switches_per_island must be non-negative (0 = no islands)");
  IW_REQUIRE(spec.switches_per_island == 0 || spec.nodes_per_switch > 0,
             "an island tier requires a switch tier (set nodes_per_switch)");

  if (!same_shape(spec, per_socket)) {
    socket_by_rank_.clear();
    node_by_rank_.clear();
    switch_by_rank_.clear();
    island_by_rank_.clear();
  }
  spec_ = spec;
  per_socket_ = per_socket;
  extend_tables(spec_.ranks);

  // classify(0, r) is monotone in r under compact placement, so it changes
  // value only where r crosses a tier boundary: probing rank 1 and the first
  // rank of each tier's second unit covers every producible class.
  produces_.fill(false);
  produces_[static_cast<std::size_t>(LinkClass::self)] = true;
  for (const int r : {1, per_socket_, ranks_per_node(), ranks_per_switch(),
                      ranks_per_island()})
    if (r > 0 && r < spec_.ranks)
      produces_[static_cast<std::size_t>(classify(0, r))] = true;
}

void Topology::extend_tables(int ranks) {
  const int first = static_cast<int>(socket_by_rank_.size());
  if (first >= ranks) return;
  const auto n = static_cast<std::size_t>(ranks);
  socket_by_rank_.reserve(n);
  node_by_rank_.reserve(n);
  if (has_switch_tier()) switch_by_rank_.reserve(n);
  if (has_island_tier()) island_by_rank_.reserve(n);

  // One pass of running tier counters instead of per-rank divisions: each
  // table entry increments when the rank index crosses its tier boundary.
  // The counters start from the first missing rank's position.
  int socket = first / per_socket_, in_socket = first % per_socket_;
  int node = socket / spec_.sockets_per_node;
  int in_node_sockets = socket % spec_.sockets_per_node;
  int sw = 0, in_switch_nodes = 0;
  int island = 0, in_island_switches = 0;
  if (has_switch_tier()) {
    sw = node / spec_.nodes_per_switch;
    in_switch_nodes = node % spec_.nodes_per_switch;
  }
  if (has_island_tier()) {
    island = sw / spec_.switches_per_island;
    in_island_switches = sw % spec_.switches_per_island;
  }
  for (int rank = first; rank < ranks; ++rank) {
    socket_by_rank_.push_back(socket);
    node_by_rank_.push_back(node);
    if (has_switch_tier()) switch_by_rank_.push_back(sw);
    if (has_island_tier()) island_by_rank_.push_back(island);
    if (++in_socket == per_socket_) {
      in_socket = 0;
      ++socket;
      if (++in_node_sockets == spec_.sockets_per_node) {
        in_node_sockets = 0;
        ++node;
        if (has_switch_tier() &&
            ++in_switch_nodes == spec_.nodes_per_switch) {
          in_switch_nodes = 0;
          ++sw;
          if (has_island_tier() &&
              ++in_island_switches == spec_.switches_per_island) {
            in_island_switches = 0;
            ++island;
          }
        }
      }
    }
  }
}

int Topology::socket_of(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < spec_.ranks, "rank out of range");
  return socket_by_rank_[static_cast<std::size_t>(rank)];
}

int Topology::node_of(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < spec_.ranks, "rank out of range");
  return node_by_rank_[static_cast<std::size_t>(rank)];
}

int Topology::switch_of(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < spec_.ranks, "rank out of range");
  IW_REQUIRE(has_switch_tier(), "topology has no switch tier");
  return switch_by_rank_[static_cast<std::size_t>(rank)];
}

int Topology::island_of(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < spec_.ranks, "rank out of range");
  IW_REQUIRE(has_island_tier(), "topology has no island tier");
  return island_by_rank_[static_cast<std::size_t>(rank)];
}

int Topology::sockets() const {
  return (spec_.ranks + per_socket_ - 1) / per_socket_;
}

int Topology::nodes() const {
  return (sockets() + spec_.sockets_per_node - 1) / spec_.sockets_per_node;
}

int Topology::switches() const {
  IW_REQUIRE(has_switch_tier(), "topology has no switch tier");
  return (nodes() + spec_.nodes_per_switch - 1) / spec_.nodes_per_switch;
}

int Topology::islands() const {
  IW_REQUIRE(has_island_tier(), "topology has no island tier");
  return (switches() + spec_.switches_per_island - 1) /
         spec_.switches_per_island;
}

}  // namespace iw::net
