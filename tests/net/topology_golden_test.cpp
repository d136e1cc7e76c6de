// Hand-computed golden instances pinning the route choices and CCTs of the
// topology layer (DESIGN.md §12).
//
// Fat-tree (k = 4, all links 10 B/s): hosts 0 and 1 sit under edge (0,0),
// hosts 4 and 5 under edge (1,0). The coflow {0->4: 100 B, 1->5: 100 B} has
// two optimal routings — put the flows on different aggregation switches —
// and one pessimal one — collapse both onto agg 0, loading every link of the
// shared 4-link segment with 200 B. So:
//   collapsed      -> Γ = 200/10 = 20 s  (both flows squeezed through agg 0)
//   ecmp           -> Γ = 100/10 = 10 s  ((0+4)%4 = path 0 = (agg0,core0);
//                                         (1+5)%4 = path 2 = (agg1,core0))
//   greedy / joint -> 10 s               (must discover the disjoint paths)
// Every allocator attains these exactly: the flows are symmetric, so fair,
// varys, aalo and varys-edf all produce the same 5 B/s (contended) or
// 10 B/s (disjoint) rates MADD does.
//
// Waxman (4 hosts, 2 routers, seed-stable): hosts {0,2} attach to router 0,
// {1,3} to router 1 (round-robin i mod 2); the single inter-router trunk
// carries ceil(4/2) * 10 = 20 B/s. The coflow {0->1: 100, 2->3: 100} fills
// the trunk exactly (two 10 B/s flows), CCT 10 s; {0->1: 100, 2->1: 100}
// shares host 1's 10 B/s ingress, CCT 20 s. Any seed produces this topology:
// with two routers the patched graph is always the single trunk.
//
// Rack (leaf-spine with one spine, 2 racks x 2 hosts at 10 B/s): each rack's
// uplink carries hosts * rate / oversub, so at 4:1 it is 5 B/s. One 10 B
// cross-rack flow is uplink-bound at Γ = 10/5 = 2 s while an intra-rack one
// stays port-bound at 1 s whatever the oversubscription; two hosts sending
// 10 B each across racks fill a 20 B/s uplink in 1 s, and 2 s once 2:1
// halves it. Under fair sharing two 50 B flows split a 5 B/s uplink at
// 2.5 B/s each: CCT 20 s.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "net/metrics.hpp"
#include "net/multipath.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

constexpr const char* kAllocators[] = {"fair", "madd", "varys", "aalo",
                                       "varys-edf"};

double simulate_cct(std::shared_ptr<const Topology> topo, RouteChoice choice,
                    const FlowMatrix& m, const char* allocator) {
  Simulator sim(
      std::make_shared<const RoutedTopology>(std::move(topo), std::move(choice)),
      make_allocator(allocator));
  sim.add_coflow(CoflowSpec("golden", 0.0, m));
  return sim.run().coflows[0].cct();
}

TEST(TopologyGolden, FatTreeRouteChoicesAndCctsPerAllocator) {
  const auto topo = Topology::fat_tree(4, 10.0);
  FlowMatrix m(topo->nodes());
  m.set(0, 4, 100.0);
  m.set(1, 5, 100.0);
  const Demand d = Demand::from_matrix(m);

  // The analytic objective first: Γ doubles when both flows collapse onto
  // aggregation switch 0.
  EXPECT_DOUBLE_EQ(routed_gamma(*topo, d, route_collapsed(*topo)), 20.0);
  EXPECT_DOUBLE_EQ(routed_gamma(*topo, d, route_ecmp(*topo)), 10.0);
  EXPECT_DOUBLE_EQ(routed_gamma(*topo, d, route_greedy(*topo, d)), 10.0);
  EXPECT_DOUBLE_EQ(routed_gamma(*topo, d, route_joint(*topo, d)), 10.0);

  // The greedy router must move flow (1,5) off flow (0,4)'s aggregation
  // switch: any of the h^2 = 4 inter-pod paths with agg index 1 (indices 2
  // and 3) is disjoint from path 0.
  const RouteChoice greedy = route_greedy(*topo, d);
  const std::size_t n = topo->nodes();
  EXPECT_EQ(greedy[0 * n + 4], 0u);  // first flow keeps the first path
  EXPECT_GE(greedy[1 * n + 5], 2u);  // second flow switches to agg 1

  for (const char* allocator : kAllocators) {
    SCOPED_TRACE(allocator);
    EXPECT_DOUBLE_EQ(
        simulate_cct(topo, route_collapsed(*topo), m, allocator), 20.0);
    EXPECT_DOUBLE_EQ(simulate_cct(topo, route_ecmp(*topo), m, allocator),
                     10.0);
    EXPECT_DOUBLE_EQ(
        simulate_cct(topo, route_greedy(*topo, d), m, allocator), 10.0);
    EXPECT_DOUBLE_EQ(
        simulate_cct(topo, route_joint(*topo, d), m, allocator), 10.0);
  }
}

TEST(TopologyGolden, WaxmanTrunkContentionCctsPerAllocator) {
  WaxmanOptions wax;
  wax.routers = 2;
  const auto topo = Topology::waxman(4, 10.0, 9, wax);

  // Structure: 8 host ports + one trunk in each direction, capacity 20 B/s,
  // and exactly one path between hosts on different routers.
  ASSERT_EQ(topo->link_count(), 10u);
  EXPECT_DOUBLE_EQ(topo->link_capacity(8), 20.0);
  EXPECT_DOUBLE_EQ(topo->link_capacity(9), 20.0);
  EXPECT_EQ(topo->path_count(0, 1), 1u);
  EXPECT_EQ(topo->path_count(0, 2), 1u);  // same router: direct
  EXPECT_EQ(topo->max_path_count(), 1u);

  FlowMatrix fill(4);  // fills the trunk exactly: 2 x 10 B/s
  fill.set(0, 1, 100.0);
  fill.set(2, 3, 100.0);
  FlowMatrix contend(4);  // shares host 1's ingress: 2 x 5 B/s
  contend.set(0, 1, 100.0);
  contend.set(2, 1, 100.0);
  for (const char* allocator : kAllocators) {
    SCOPED_TRACE(allocator);
    EXPECT_DOUBLE_EQ(
        simulate_cct(topo, route_ecmp(*topo), fill, allocator), 10.0);
    EXPECT_DOUBLE_EQ(
        simulate_cct(topo, route_ecmp(*topo), contend, allocator), 20.0);
  }
}

TEST(TopologyGolden, SeededGeneratorIsRunAndThreadIndependent) {
  WaxmanOptions wax;
  wax.routers = 6;
  wax.route_k = 3;
  const auto build = [&] { return Topology::waxman(18, 10.0, 1234, wax); };

  // Same seed on the main thread and on two concurrent threads: the builds
  // must be structurally identical (the generator is single-threaded and
  // seeded, so thread count and scheduling cannot leak in).
  const auto reference = build();
  std::vector<std::shared_ptr<const Topology>> built(2);
  {
    std::thread a([&] { built[0] = build(); });
    std::thread b([&] { built[1] = build(); });
    a.join();
    b.join();
  }
  for (const auto& topo : built) {
    ASSERT_NE(topo, nullptr);
    ASSERT_EQ(topo->link_count(), reference->link_count());
    for (std::size_t l = 0; l < reference->link_count(); ++l) {
      const auto id = static_cast<Topology::LinkId>(l);
      EXPECT_EQ(topo->link_capacity(id), reference->link_capacity(id));
      EXPECT_EQ(topo->link_ends(id).tail, reference->link_ends(id).tail);
      EXPECT_EQ(topo->link_ends(id).head, reference->link_ends(id).head);
    }
    const auto n = static_cast<std::uint32_t>(reference->nodes());
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (i == j) continue;
        ASSERT_EQ(topo->path_count(i, j), reference->path_count(i, j));
        for (std::uint32_t k = 0; k < reference->path_count(i, j); ++k) {
          EXPECT_EQ(topo->path_links(i, j, k), reference->path_links(i, j, k));
        }
      }
    }
  }
}

// --- the two-tier rack fabric (leaf-spine, one spine) -----------------

/// The rack fabric of §III-A: `racks` x `hosts` behind one spine, whose one
/// route per pair is the collapsed choice.
std::shared_ptr<const RoutedTopology> rack_fabric(std::size_t racks,
                                                  std::size_t hosts,
                                                  double host_rate,
                                                  double oversubscription) {
  const auto topo =
      Topology::leaf_spine(racks, hosts, 1, host_rate, oversubscription);
  return std::make_shared<const RoutedTopology>(topo, route_collapsed(*topo));
}

// The rack fabric's link layout, pinned numerically: with n = R * h hosts,
// egress ports are [0, n), ingress ports [n, 2n), rack r's uplink-out is
// 2n + r and its uplink-in 2n + R + r, and both uplinks carry h * rate / os.
// A host's rack is the ToR its egress port attaches to (graph node n + r).

TEST(RackFabric, BasicGeometry) {
  const auto rack = rack_fabric(3, 4, 100.0, 2.0);
  const Topology& topo = rack->topology();
  EXPECT_EQ(rack->nodes(), 12u);
  EXPECT_EQ(rack->link_count(), 2u * 12u + 2u * 3u);
  EXPECT_EQ(topo.graph_nodes(), 12u + 3u + 1u);  // hosts + ToRs + the spine
  const auto rack_of = [&](Network::LinkId host) {
    return topo.link_ends(host).head - 12u;
  };
  EXPECT_EQ(rack_of(0), 0u);
  EXPECT_EQ(rack_of(3), 0u);
  EXPECT_EQ(rack_of(4), 1u);
  EXPECT_EQ(rack_of(11), 2u);
  for (Network::LinkId l = 0; l < 24; ++l) {
    EXPECT_DOUBLE_EQ(rack->link_capacity(l), 100.0) << "host port " << l;
  }
  // Uplink = h * rate / os = 4 x 100 / 2 = 200, both directions.
  for (Network::LinkId l = 24; l < 30; ++l) {
    EXPECT_DOUBLE_EQ(rack->link_capacity(l), 200.0) << "uplink " << l;
  }
}

TEST(RackFabric, LinkCapacities) {
  // 2 racks x 3 hosts at 10 B/s, 1.5:1: host ports 10, uplinks 3*10/1.5 = 20.
  const auto rack = rack_fabric(2, 3, 10.0, 1.5);
  const std::size_t n = 6, racks = 2;
  for (Network::LinkId l = 0; l < 2 * n; ++l) {
    EXPECT_DOUBLE_EQ(rack->link_capacity(l), 10.0) << "host port " << l;
  }
  for (Network::LinkId l = 2 * n; l < 2 * n + 2 * racks; ++l) {
    EXPECT_DOUBLE_EQ(rack->link_capacity(l), 20.0) << "uplink " << l;
  }
  EXPECT_THROW(rack->link_capacity(99), std::out_of_range);
}

TEST(RackFabric, IntraRackFlowUsesTwoLinks) {
  // Hosts 0 and 2 share rack 0: egress 0, ingress n + 2.
  const auto rack = rack_fabric(2, 3, 10.0, 1.0);
  EXPECT_EQ(rack->links_of(0, 2), (std::vector<Network::LinkId>{0, 6 + 2}));
  EXPECT_EQ(rack_fabric(3, 4, 100.0, 2.0)->links_of(0, 3),
            (std::vector<Network::LinkId>{0, 12 + 3}));
}

TEST(RackFabric, CrossRackFlowUsesFourLinks) {
  // 2 racks x 3 hosts, rack 0 -> rack 1: egress 1, uplink-out(0) = 12,
  // uplink-in(1) = 12 + 2 + 1, ingress 6 + 4.
  const auto rack = rack_fabric(2, 3, 10.0, 1.0);
  EXPECT_EQ(rack->links_of(1, 4),
            (std::vector<Network::LinkId>{1, 12, 15, 6 + 4}));
  // 3 racks x 4 hosts: rack 0 -> rack 2 and rack 1 -> rack 0.
  const auto big = rack_fabric(3, 4, 100.0, 2.0);
  EXPECT_EQ(big->links_of(1, 11),
            (std::vector<Network::LinkId>{1, 24, 24 + 3 + 2, 12 + 11}));
  EXPECT_EQ(big->links_of(4, 2),
            (std::vector<Network::LinkId>{4, 25, 24 + 3 + 0, 12 + 2}));
}

TEST(RackFabric, RejectsInvalidArguments) {
  EXPECT_THROW(Topology::leaf_spine(0, 3, 1, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(3, 0, 1, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 1, 0.0, 1.0), std::invalid_argument);
  // Undersubscribed uplinks (os < 1) are a valid leaf-spine; a zero
  // oversubscription (an infinite uplink) is not.
  EXPECT_THROW(Topology::leaf_spine(2, 2, 1, 1.0, 0.0), std::invalid_argument);
}

TEST(RackGamma, UplinkBecomesTheBottleneck) {
  const auto rack = rack_fabric(2, 2, 10.0, 4.0);  // uplink 5
  FlowMatrix flows(4);
  flows.set(0, 2, 10.0);  // cross-rack
  // Host bound: 10/10 = 1 s. Uplink bound: 10/5 = 2 s.
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *rack), 2.0);
}

TEST(RackGamma, IntraRackUnaffectedByOversubscription) {
  const auto rack = rack_fabric(2, 2, 10.0, 8.0);
  FlowMatrix flows(4);
  flows.set(0, 1, 10.0);  // same rack
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *rack), 1.0);
}

TEST(RackGamma, AggregatesUplinkLoadAcrossHosts) {
  // Both hosts of rack 0 send 10 to rack 1: uplink-out of rack 0 carries 20.
  FlowMatrix flows(4);
  flows.set(0, 2, 10.0);
  flows.set(1, 3, 10.0);
  // Hosts: 10/10 = 1 s. Uplink out rack0: 20/20 = 1 s. Tie at 1.
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *rack_fabric(2, 2, 10.0, 1.0)), 1.0);
  // With oversubscription 2 the uplink halves: bound doubles.
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *rack_fabric(2, 2, 10.0, 2.0)), 2.0);
}

TEST(RackGamma, FullBisectionSingleRackMatchesFlatFabric) {
  const auto rack = rack_fabric(1, 4, 10.0, 1.0);
  const Fabric flat(4, 10.0);
  FlowMatrix flows(4);
  flows.set(0, 1, 30.0);
  flows.set(2, 3, 10.0);
  flows.set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *rack), gamma_bound(flows, flat));
}

TEST(RackSimulator, MaddMatchesRackGamma) {
  const auto rack = rack_fabric(3, 3, 10.0, 3.0);
  FlowMatrix flows(9);
  // A mix of intra- and cross-rack flows.
  flows.set(0, 1, 40.0);
  flows.set(0, 4, 25.0);
  flows.set(2, 8, 30.0);
  flows.set(5, 3, 15.0);
  flows.set(7, 6, 20.0);
  const double gamma = gamma_bound(flows, *rack);
  Simulator sim(rack, make_allocator("madd"));
  sim.add_coflow(CoflowSpec("c", 0.0, std::move(flows)));
  const SimReport r = sim.run();
  EXPECT_NEAR(r.coflows[0].cct(), gamma, 1e-9 * gamma);
}

TEST(RackSimulator, FairSharingRespectsUplinkCapacity) {
  const auto rack = rack_fabric(2, 2, 10.0, 4.0);
  // Two cross-rack flows share the rack-0 uplink (cap 5).
  FlowMatrix flows(4);
  flows.set(0, 2, 50.0);
  flows.set(1, 3, 50.0);
  Simulator sim(rack, make_allocator("fair"));
  sim.add_coflow(CoflowSpec("c", 0.0, std::move(flows)));
  const SimReport r = sim.run();
  // Each flow gets 2.5 through the uplink: 50/2.5 = 20 s.
  EXPECT_NEAR(r.coflows[0].cct(), 20.0, 1e-9);
}

TEST(RoutedNetwork, SingleSpineMatchesRackFabric) {
  // With one spine every load-aware or hashed route choice is the rack
  // fabric's one route per pair: Γ agrees for any flows.
  const auto rack = rack_fabric(3, 2, 10.0, /*oversubscription=*/4.0);
  const Topology& topo = rack->topology();
  EXPECT_DOUBLE_EQ(topo.link_capacity(2 * 6), 5.0);  // uplink 2 * 10 / 4
  util::Pcg32 rng(7, 7);
  FlowMatrix flows(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i != j) flows.set(i, j, rng.uniform(0.0, 50.0));
    }
  }
  const Demand d = Demand::from_matrix(flows);
  const double rack_gamma = gamma_bound(flows, *rack);
  EXPECT_NEAR(routed_gamma(topo, d, route_ecmp(topo)), rack_gamma, 1e-9);
  EXPECT_NEAR(routed_gamma(topo, d, route_greedy(topo, d)), rack_gamma, 1e-9);
}

TEST(RoutedNetwork, SimulatedMaddMatchesGamma) {
  // 3 racks x 2 hosts over 2 spines with 8 B/s spine links (2*10/(1.25*2)).
  const auto topo = Topology::leaf_spine(3, 2, 2, 10.0, 1.25);
  FlowMatrix flows(6);
  flows.set(0, 2, 60.0);
  flows.set(1, 4, 40.0);
  flows.set(3, 5, 30.0);
  flows.set(2, 0, 20.0);
  const auto routed = std::make_shared<const RoutedTopology>(
      topo, route_greedy(*topo, Demand::from_matrix(flows)));
  const double gamma = gamma_bound(flows, *routed);
  Simulator sim(routed, make_allocator("madd"));
  sim.add_coflow(CoflowSpec("c", 0.0, std::move(flows)));
  EXPECT_NEAR(sim.run().coflows[0].cct(), gamma, 1e-9 * gamma);
}

TEST(RackSimulator, SimulatorRejectsNullNetwork) {
  EXPECT_THROW(Simulator(nullptr, make_allocator("madd")),
               std::invalid_argument);
}

}  // namespace
}  // namespace ccf::net
