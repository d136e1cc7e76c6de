// Unit + golden tests of the general topology layer (src/net/topology.hpp):
// link layout and capacities of each factory against hand-computed values,
// route-set sizes, the ECMP hash and the greedy router's spine spreading,
// the intra-rack src==dst short-circuit and the append_links src != dst
// contract, TopologySpec parsing and its typed errors, and seeded generator
// determinism (same seed -> same topology, build after build).
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/topology.hpp"

namespace ccf::net {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- leaf-spine golden ------------------------------------------------

TEST(TopologyLeafSpine, MatchesHandComputedLayout) {
  // 2 racks x 2 hosts, 2 spines, 2:1 oversubscription at 10 B/s ports.
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 2.0);
  ASSERT_EQ(topo->nodes(), 4u);
  EXPECT_EQ(topo->kind(), TopologyKind::kLeafSpine);
  // 2n host ports + R*S uplinks + R*S downlinks.
  ASSERT_EQ(topo->link_count(), 8u + 4u + 4u);
  EXPECT_EQ(topo->graph_nodes(), 4u + 2u + 2u);  // hosts + ToRs + spines

  for (Topology::LinkId l = 0; l < 8; ++l) {
    EXPECT_DOUBLE_EQ(topo->link_capacity(l), 10.0) << "host port " << l;
  }
  // Per-uplink capacity: hosts * rate / (oversub * spines) = 2*10/(2*2) = 5.
  for (Topology::LinkId l = 8; l < 16; ++l) {
    EXPECT_DOUBLE_EQ(topo->link_capacity(l), 5.0) << "switch link " << l;
  }

  // Intra-rack pair: the switch layer is short-circuited.
  EXPECT_EQ(topo->path_count(0, 1), 1u);
  EXPECT_EQ(topo->path_links(0, 1, 0), (std::vector<Topology::LinkId>{0, 5}));

  // Cross-rack pair: one path per spine, with the leaf-spine id layout
  // (up(r,s) = 2n + r*S + s, down(r,s) = 2n + R*S + r*S + s).
  ASSERT_EQ(topo->path_count(0, 2), 2u);
  EXPECT_EQ(topo->path_links(0, 2, 0),
            (std::vector<Topology::LinkId>{0, 8, 14, 6}));
  EXPECT_EQ(topo->path_links(0, 2, 1),
            (std::vector<Topology::LinkId>{0, 9, 15, 6}));
  EXPECT_EQ(topo->max_path_count(), 2u);

  // Undersubscription (the flat-equivalence regime) is allowed.
  const auto fat = Topology::leaf_spine(2, 2, 2, 10.0, 0.25);
  EXPECT_DOUBLE_EQ(fat->link_capacity(8), 40.0);
}

TEST(TopologyLeafSpine, MultiSpineGeometry) {
  // 3 racks x 2 hosts over 2 spines: a host's rack is the ToR its egress
  // port attaches to, and cross-rack pairs get one path per spine.
  const auto topo = Topology::leaf_spine(3, 2, 2, 10.0, 1.0);
  EXPECT_EQ(topo->nodes(), 6u);
  EXPECT_EQ(topo->link_count(), 2u * 6u + 2u * 3u * 2u);
  const auto tor = [&](Topology::LinkId host) {
    return topo->link_ends(host).head;
  };
  EXPECT_EQ(tor(0), 6u);  // rack 0's ToR follows the hosts
  EXPECT_EQ(tor(1), tor(0));
  EXPECT_EQ(tor(5), 6u + 2u);
  EXPECT_EQ(topo->path_count(0, 1), 1u);  // same rack
  EXPECT_EQ(topo->path_count(0, 2), 2u);  // cross rack: one path per spine
}

TEST(MultiPathFabric, RejectsInvalidArguments) {
  // Zero racks, hosts or spines, and non-positive host rates or
  // oversubscriptions (which would make the per-spine uplink non-positive).
  EXPECT_THROW(Topology::leaf_spine(0, 2, 2, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 0, 2, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 0, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 2, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 2, 1.0, -1.0),
               std::invalid_argument);
}

TEST(TopologyLeafSpine, RejectsBadDimensions) {
  EXPECT_THROW(Topology::leaf_spine(2, 2, 2, 10.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 2, -1.0, 1.0),
               std::invalid_argument);
  // NaN compares false against every bound, so the checks fail closed on it;
  // an infinite rate is no capacity either.
  EXPECT_THROW(Topology::leaf_spine(2, 2, 1, kNaN, 1.0), std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 1, 10.0, kNaN),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 1, kInf, 1.0), std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 1, 10.0, kInf),
               std::invalid_argument);
}

// --- fat-tree golden --------------------------------------------------

TEST(TopologyFatTree, MatchesAlFaresStructure) {
  // k=4: 16 hosts, 8 edge + 8 agg + 4 core switches.
  const auto topo = Topology::fat_tree(4, 10.0);
  ASSERT_EQ(topo->nodes(), 16u);
  EXPECT_EQ(topo->kind(), TopologyKind::kFatTree);
  EXPECT_EQ(topo->graph_nodes(), 16u + 8u + 8u + 4u);
  // 2n host ports + 2 * (edge-agg pairs) + 2 * (agg-core pairs).
  EXPECT_EQ(topo->link_count(), 32u + 2u * 16u + 2u * 16u);

  // Full bisection: every link runs at the host rate.
  for (Topology::LinkId l = 0; l < topo->link_count(); ++l) {
    EXPECT_DOUBLE_EQ(topo->link_capacity(l), 10.0) << "link " << l;
  }

  // Path counts: 1 under one edge switch, k/2 inside a pod, (k/2)^2 across
  // pods. Hosts 0,1 share edge (0,0); host 2 is under edge (0,1); host 4
  // lives in pod 1.
  EXPECT_EQ(topo->path_count(0, 1), 1u);
  EXPECT_EQ(topo->path_count(0, 2), 2u);
  EXPECT_EQ(topo->path_count(0, 4), 4u);
  EXPECT_EQ(topo->max_path_count(), 4u);

  // Same-edge pair short-circuits the switch fabric entirely.
  EXPECT_EQ(topo->path_links(0, 1, 0),
            (std::vector<Topology::LinkId>{0, 16 + 1}));

  // An inter-pod path has exactly egress + 4 switch links + ingress, and its
  // link endpoints chain src -> ... -> dst.
  const auto path = topo->path_links(0, 4, 3);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(topo->link_ends(path.front()).tail, 0u);
  EXPECT_EQ(topo->link_ends(path.back()).head, 4u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(topo->link_ends(path[i]).head, topo->link_ends(path[i + 1]).tail)
        << "hop " << i;
  }

  // Core oversubscription scales only the agg<->core layer.
  const auto thin = Topology::fat_tree(4, 10.0, 2.0);
  EXPECT_DOUBLE_EQ(thin->link_capacity(32), 10.0);       // edge-agg
  EXPECT_DOUBLE_EQ(thin->link_capacity(32 + 32), 5.0);   // agg-core

  EXPECT_THROW(Topology::fat_tree(3, 10.0), std::invalid_argument);
  EXPECT_THROW(Topology::fat_tree(0, 10.0), std::invalid_argument);
  EXPECT_THROW(Topology::fat_tree(4, kNaN), std::invalid_argument);
  EXPECT_THROW(Topology::fat_tree(4, 10.0, kNaN), std::invalid_argument);
}

// --- waxman golden + determinism --------------------------------------

TEST(TopologyWaxman, SameSeedSameTopology) {
  WaxmanOptions options;
  options.routers = 6;
  options.route_k = 3;
  const auto a = Topology::waxman(12, 10.0, 42, options);
  const auto b = Topology::waxman(12, 10.0, 42, options);
  ASSERT_EQ(a->nodes(), b->nodes());
  ASSERT_EQ(a->link_count(), b->link_count());
  for (Topology::LinkId l = 0; l < a->link_count(); ++l) {
    EXPECT_DOUBLE_EQ(a->link_capacity(l), b->link_capacity(l));
    EXPECT_EQ(a->link_ends(l).tail, b->link_ends(l).tail);
    EXPECT_EQ(a->link_ends(l).head, b->link_ends(l).head);
  }
  for (std::uint32_t i = 0; i < a->nodes(); ++i) {
    for (std::uint32_t j = 0; j < a->nodes(); ++j) {
      if (i == j) continue;
      ASSERT_EQ(a->path_count(i, j), b->path_count(i, j));
      for (std::uint32_t k = 0; k < a->path_count(i, j); ++k) {
        EXPECT_EQ(a->path_links(i, j, k), b->path_links(i, j, k));
      }
    }
  }
}

TEST(TopologyWaxman, DifferentSeedsDiverge) {
  // Two seeds agreeing on every link end would mean the seed is ignored.
  WaxmanOptions options;
  options.routers = 8;
  const auto a = Topology::waxman(16, 10.0, 1, options);
  const auto b = Topology::waxman(16, 10.0, 2, options);
  bool diverged = a->link_count() != b->link_count();
  for (Topology::LinkId l = 0; !diverged && l < a->link_count(); ++l) {
    diverged = a->link_ends(l).tail != b->link_ends(l).tail ||
               a->link_ends(l).head != b->link_ends(l).head;
  }
  EXPECT_TRUE(diverged);
}

TEST(TopologyWaxman, EveryPairRoutedAndCapacitiesPositive) {
  const auto topo = Topology::waxman(10, 10.0, 7, {});
  for (Topology::LinkId l = 0; l < topo->link_count(); ++l) {
    EXPECT_GT(topo->link_capacity(l), 0.0);
  }
  for (std::uint32_t i = 0; i < topo->nodes(); ++i) {
    for (std::uint32_t j = 0; j < topo->nodes(); ++j) {
      if (i != j) EXPECT_GE(topo->path_count(i, j), 1u);
    }
  }
  EXPECT_THROW(Topology::waxman(4, 10.0, 1, {.routers = 9}),
               std::invalid_argument);
  EXPECT_THROW(Topology::waxman(4, 10.0, 1, {.alpha = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(Topology::waxman(4, 10.0, 1, {.routers = 2, .alpha = kNaN}),
               std::invalid_argument);
  EXPECT_THROW(
      Topology::waxman(4, 10.0, 1, {.routers = 2, .trunk_scale = kNaN}),
      std::invalid_argument);
}

// --- routing policies -------------------------------------------------

TEST(RouteEcmp, DeterministicHashOverSpines) {
  const auto topo = Topology::leaf_spine(3, 2, 3, 10.0, 1.0);
  const RouteChoice choice = route_ecmp(*topo);
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      // Cross-rack pairs hash over the 3 spines; intra-rack pairs have the
      // one direct path.
      const bool same_rack = i / 2 == j / 2;
      EXPECT_EQ(choice[i * 6 + j], same_rack ? 0u : (i + j) % 3)
          << i << " -> " << j;
    }
  }
}

TEST(RouteGreedy, SpreadsTwoHeavyFlowsAcrossSpines) {
  // Two heavy flows from rack 0 to rack 1: on one spine they would share an
  // uplink; the volume-greedy router puts them on different spines.
  const auto topo = Topology::leaf_spine(3, 2, 2, 10.0, 1.0);
  Demand demand(6);
  demand.add(0, 2, 100.0);
  demand.add(1, 3, 100.0);
  const RouteChoice choice = route_greedy(*topo, demand);
  EXPECT_NE(choice[0 * 6 + 2], choice[1 * 6 + 3]);
}

// --- RoutedTopology as a Network --------------------------------------

TEST(RoutedTopology, AdaptsChoiceToAppendLinks) {
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 1.0);
  RouteChoice choice = route_ecmp(*topo);
  choice[0 * 4 + 2] = 1;  // pin (0 -> 2) onto spine 1
  const RoutedTopology net(topo, choice);
  EXPECT_EQ(net.nodes(), 4u);
  EXPECT_EQ(net.link_count(), topo->link_count());
  EXPECT_EQ(net.links_of(0, 2), topo->path_links(0, 2, 1));
  EXPECT_EQ(net.links_of(0, 1), topo->path_links(0, 1, 0));

  EXPECT_THROW(RoutedTopology(nullptr, choice), std::invalid_argument);
  EXPECT_THROW(RoutedTopology(topo, RouteChoice(3, 0)), std::invalid_argument);
  RouteChoice bad = route_ecmp(*topo);
  bad[0 * 4 + 2] = 9;
  EXPECT_THROW(RoutedTopology(topo, bad), std::out_of_range);
}

TEST(RoutedNetwork, PathsFollowTheRouting) {
  // 3 racks x 2 hosts over 2 spines (n = 6, R = 3, S = 2):
  // up(r,s) = 2n + r*S + s, down(r,s) = 2n + R*S + r*S + s.
  const auto topo = Topology::leaf_spine(3, 2, 2, 10.0, 1.0);
  RouteChoice choice = route_collapsed(*topo);
  choice[0 * 6 + 2] = 1;  // (0 -> 2) crosses spine 1
  const RoutedTopology net(topo, choice);
  EXPECT_EQ(net.links_of(0, 2),
            (std::vector<Network::LinkId>{0, 12 + 0 * 2 + 1,
                                          12 + 6 + 1 * 2 + 1, 6 + 2}));
  EXPECT_EQ(net.links_of(0, 1).size(), 2u);  // same rack: host ports only
}

TEST(RoutedNetwork, Errors) {
  const auto topo = Topology::leaf_spine(3, 2, 2, 10.0, 1.0);
  EXPECT_THROW(RoutedTopology(nullptr, route_collapsed(*topo)),
               std::invalid_argument);
  EXPECT_THROW(RoutedTopology(topo, RouteChoice(4 * 4, 0)),
               std::invalid_argument);
  RouteChoice bad = route_collapsed(*topo);
  bad[0 * 6 + 2] = 9;  // spine out of range
  EXPECT_THROW(RoutedTopology(topo, bad), std::out_of_range);
}

// --- the src != dst contract (satellite fix) ---------------------------

TEST(AppendLinksContract, IntraRackShortCircuitIsDistinctFromSelfFlow) {
  // The valid short-circuit: src != dst in the SAME rack skips the switch
  // layer on every two-tier topology, one spine or several.
  const auto one_spine = Topology::leaf_spine(2, 2, 1, 10.0, 2.0);
  const RoutedTopology rack(one_spine, route_collapsed(*one_spine));
  EXPECT_EQ(rack.links_of(0, 1),
            (std::vector<Network::LinkId>{0, 4 + 1}));
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 2.0);
  const RoutedTopology routed(topo, route_ecmp(*topo));
  EXPECT_EQ(routed.links_of(0, 1),
            (std::vector<Network::LinkId>{0, 4 + 1}));

  // The invalid self-flow now dies under a debug assert on every topology
  // (release builds keep asserts compiled out; the routed topology then
  // throws — its route table has no entry for the diagonal).
#ifndef NDEBUG
  std::vector<Network::LinkId> out;
  EXPECT_DEATH(rack.append_links(1, 1, out), "src != dst");
  EXPECT_DEATH(Fabric(4, 10.0).append_links(2, 2, out), "src != dst");
  EXPECT_DEATH(routed.append_links(3, 3, out), "src != dst");
#else
  std::vector<Network::LinkId> out;
  EXPECT_THROW(rack.append_links(1, 1, out), std::out_of_range);
  EXPECT_THROW(routed.append_links(3, 3, out), std::out_of_range);
#endif
}

// --- TopologySpec parsing ----------------------------------------------

TEST(TopologySpec, ParsesAndRoundTrips) {
  const auto ls =
      TopologySpec::parse("leafspine:racks=32,hosts=16,spines=4,oversub=4");
  EXPECT_EQ(ls.kind, TopologyKind::kLeafSpine);
  EXPECT_EQ(ls.racks, 32u);
  EXPECT_EQ(ls.hosts, 16u);
  EXPECT_EQ(ls.spines, 4u);
  EXPECT_DOUBLE_EQ(ls.oversub, 4.0);
  EXPECT_EQ(ls.node_count(), 512u);
  EXPECT_EQ(TopologySpec::parse(ls.to_string()).to_string(), ls.to_string());

  const auto ft = TopologySpec::parse("fattree:k=8,core-scale=2");
  EXPECT_EQ(ft.kind, TopologyKind::kFatTree);
  EXPECT_EQ(ft.fat_k, 8u);
  EXPECT_DOUBLE_EQ(ft.core_scale, 2.0);
  EXPECT_EQ(ft.node_count(), 128u);

  const auto wx = TopologySpec::parse("waxman:nodes=24,routers=8,seed=7,paths=4");
  EXPECT_EQ(wx.kind, TopologyKind::kIrregular);
  EXPECT_EQ(wx.nodes, 24u);
  EXPECT_EQ(wx.waxman.routers, 8u);
  EXPECT_EQ(wx.seed, 7u);
  EXPECT_EQ(wx.waxman.route_k, 4u);
  EXPECT_EQ(wx.node_count(), 24u);

  // Bare kind uses the defaults.
  EXPECT_EQ(TopologySpec::parse("leafspine").racks, 4u);

  EXPECT_THROW(TopologySpec::parse("torus:k=3"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("leafspine:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("leafspine:racks=abc"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("leafspine:racks"), std::invalid_argument);
  // A double must match its whole value ("4abc" is not 4), and NaN or an
  // infinity would build links without a finite capacity.
  for (const char* bad :
       {"leafspine:oversub=4abc", "leafspine:oversub=nan",
        "fattree:k=4,core-scale=nan", "leafspine:oversub=inf",
        "leafspine:oversub="}) {
    EXPECT_THROW(TopologySpec::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(TopologySpec, MakeTopologyDispatches) {
  const auto ls = make_topology(TopologySpec::parse("leafspine:racks=3,hosts=2"));
  EXPECT_EQ(ls->kind(), TopologyKind::kLeafSpine);
  EXPECT_EQ(ls->nodes(), 6u);
  const auto ft = make_topology(TopologySpec::parse("fattree:k=4"));
  EXPECT_EQ(ft->kind(), TopologyKind::kFatTree);
  EXPECT_EQ(ft->nodes(), 16u);
  const auto wx = make_topology(TopologySpec::parse("waxman:nodes=8,routers=3"));
  EXPECT_EQ(wx->kind(), TopologyKind::kIrregular);
  EXPECT_EQ(wx->nodes(), 8u);
}

}  // namespace
}  // namespace ccf::net
