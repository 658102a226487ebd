// Tests for the hierarchical topology and link classification.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "net/topology.hpp"

namespace iw::net {
namespace {

TEST(Topology, PackedMappingMatchesPaperNodes) {
  // 40 ranks on dual-socket 10-core nodes: 4 sockets, 2 nodes.
  const Topology topo(TopologySpec::packed(40));
  EXPECT_EQ(topo.ranks(), 40);
  EXPECT_EQ(topo.ranks_per_socket(), 10);
  EXPECT_EQ(topo.ranks_per_node(), 20);
  EXPECT_EQ(topo.sockets(), 4);
  EXPECT_EQ(topo.nodes(), 2);
  EXPECT_EQ(topo.socket_of(0), 0);
  EXPECT_EQ(topo.socket_of(9), 0);
  EXPECT_EQ(topo.socket_of(10), 1);
  EXPECT_EQ(topo.node_of(19), 0);
  EXPECT_EQ(topo.node_of(20), 1);
}

TEST(Topology, PartialLastSocketCounts) {
  const Topology topo(TopologySpec::packed(25));
  EXPECT_EQ(topo.sockets(), 3);
  EXPECT_EQ(topo.nodes(), 2);
}

TEST(Topology, CustomRanksPerSocket) {
  // Fig. 9 runs six processes per socket on six sockets.
  const Topology topo(TopologySpec::packed(36, 6));
  EXPECT_EQ(topo.sockets(), 6);
  EXPECT_EQ(topo.nodes(), 3);
  EXPECT_EQ(topo.socket_of(5), 0);
  EXPECT_EQ(topo.socket_of(6), 1);
  EXPECT_EQ(topo.node_of(11), 0);
  EXPECT_EQ(topo.node_of(12), 1);
}

TEST(Topology, OneRankPerNode) {
  const Topology topo(TopologySpec::one_rank_per_node(18));
  EXPECT_EQ(topo.ranks(), 18);
  EXPECT_EQ(topo.nodes(), 18);
  for (int r = 0; r < 18; ++r) EXPECT_EQ(topo.node_of(r), r);
}

TEST(Topology, LinkClassification) {
  const Topology topo(TopologySpec::packed(40));
  EXPECT_EQ(topo.classify(3, 3), LinkClass::self);
  EXPECT_EQ(topo.classify(3, 7), LinkClass::intra_socket);
  EXPECT_EQ(topo.classify(3, 13), LinkClass::inter_socket);
  EXPECT_EQ(topo.classify(3, 23), LinkClass::inter_node);
  // Symmetry.
  EXPECT_EQ(topo.classify(23, 3), LinkClass::inter_node);
}

TEST(Topology, PPN1AlwaysInterNode) {
  const Topology topo(TopologySpec::one_rank_per_node(8));
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a != b) {
        EXPECT_EQ(topo.classify(a, b), LinkClass::inter_node);
      }
    }
  }
}

TEST(Topology, RejectsInvalidSpecs) {
  TopologySpec bad;
  bad.ranks = 0;
  EXPECT_THROW(Topology{bad}, std::invalid_argument);
  TopologySpec toomany = TopologySpec::packed(10, 11);
  toomany.cores_per_socket = 10;
  EXPECT_THROW(Topology{toomany}, std::invalid_argument);
}

TEST(Topology, RangeChecksOnQueries) {
  const Topology topo(TopologySpec::packed(10));
  EXPECT_THROW((void)topo.socket_of(-1), std::invalid_argument);
  EXPECT_THROW((void)topo.socket_of(10), std::invalid_argument);
  EXPECT_THROW((void)topo.classify(0, 10), std::invalid_argument);
}

/// Every observable of `topo` against a freshly built topology of `spec`,
/// and produces() against a brute-force scan of classify(0, r).
void expect_as_fresh(const Topology& topo, const TopologySpec& spec) {
  const Topology fresh(spec);
  ASSERT_EQ(topo.ranks(), fresh.ranks());
  for (int r = 0; r < spec.ranks; ++r) {
    ASSERT_EQ(topo.socket_of(r), fresh.socket_of(r)) << "rank " << r;
    ASSERT_EQ(topo.node_of(r), fresh.node_of(r)) << "rank " << r;
    if (topo.has_switch_tier()) {
      ASSERT_EQ(topo.switch_of(r), fresh.switch_of(r)) << "rank " << r;
    }
    if (topo.has_island_tier()) {
      ASSERT_EQ(topo.island_of(r), fresh.island_of(r)) << "rank " << r;
    }
    ASSERT_EQ(topo.classify(r, spec.ranks - 1 - r),
              fresh.classify(r, spec.ranks - 1 - r));
  }
  std::array<bool, static_cast<std::size_t>(kLinkClassCount)> seen{};
  for (int r = 0; r < spec.ranks; ++r)
    seen[static_cast<std::size_t>(topo.classify(0, r))] = true;
  for (int c = 0; c < kLinkClassCount; ++c)
    EXPECT_EQ(topo.produces(static_cast<LinkClass>(c)),
              seen[static_cast<std::size_t>(c)])
        << to_string(static_cast<LinkClass>(c)) << " at np=" << spec.ranks;
}

TEST(Topology, ReshapeMatchesFreshAcrossRankCountsAndShapes) {
  // Rank 34 sits mid-way through every tier unit (socket 11, node 5,
  // switch 1, island 0), so growing from it resumes every tier counter.
  TopologySpec islands = TopologySpec::packed(34, 3);
  islands.nodes_per_switch = 4;
  islands.switches_per_island = 5;
  TopologySpec switched = TopologySpec::packed(333, 2);
  switched.nodes_per_switch = 8;
  TopologySpec switched_big = switched;
  switched_big.ranks = 1000;
  // Grow, shrink below the high-water mark, regrow past it, switch shape
  // (including partially filled last units), and come back.
  const std::vector<TopologySpec> sequence = {
      islands,
      TopologySpec{.ranks = 1, .ranks_per_socket = 3, .nodes_per_switch = 4,
                   .switches_per_island = 5},
      TopologySpec{.ranks = 25, .ranks_per_socket = 3, .nodes_per_switch = 4,
                   .switches_per_island = 5},
      TopologySpec{.ranks = 1201, .ranks_per_socket = 3,
                   .nodes_per_switch = 4, .switches_per_island = 5},
      switched,
      switched_big,
      TopologySpec::one_rank_per_node(18),
      TopologySpec::packed(41),
      TopologySpec::packed(7),
      switched,
  };
  Topology topo(sequence.front());
  for (const TopologySpec& spec : sequence) {
    topo.reshape(spec);
    expect_as_fresh(topo, spec);
  }
}

TEST(LinkClass, Names) {
  EXPECT_STREQ(to_string(LinkClass::intra_socket), "intra-socket");
  EXPECT_STREQ(to_string(LinkClass::inter_node), "inter-node");
}

}  // namespace
}  // namespace iw::net
