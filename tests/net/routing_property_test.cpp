// Route-set and joint-optimizer properties over the general topology layer
// (DESIGN.md §12). For every topology family:
//   (i)   every path of every route-set is a walk from src to dst in the
//         link graph (link_ends chain up) and is loop-free (no graph node
//         repeats), starting at src's egress port and ending at dst's
//         ingress port;
//   (ii)  total allocated rate never exceeds any link's (possibly
//         fault-degraded) capacity, under every routing policy and across
//         mid-session re-routes (Simulator::set_network) — enforced by the
//         invariant-checking allocator decorator from ISSUE 4;
//   (iii) the joint routing x bandwidth optimizer is never worse than static
//         ECMP, both on the analytic objective (routed Γ) and on the
//         simulated MADD CCT.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/multipath.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "testing/invariants.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

FlowMatrix random_flows(std::size_t n, std::uint64_t seed, double density) {
  util::Pcg32 rng(util::derive_seed(seed, 77), 77);
  FlowMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform01() < density) {
        m.set(i, j, rng.uniform(1.0, 300.0));
      }
    }
  }
  if (m.traffic() <= 0.0) m.set(0, 1, 10.0);
  return m;
}

std::vector<std::shared_ptr<const Topology>> families(std::uint64_t seed) {
  WaxmanOptions wax;
  wax.routers = 5;
  wax.route_k = 3;
  return {
      Topology::leaf_spine(4, 3, 3, 10.0, 2.0),
      Topology::fat_tree(4, 10.0, 2.0),
      Topology::waxman(12, 10.0, seed, wax),
  };
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, EveryPathIsALoopFreeSrcToDstWalk) {
  for (const auto& topo : families(GetParam())) {
    const auto n = static_cast<std::uint32_t>(topo->nodes());
    std::vector<Topology::LinkId> links;
    for (std::uint32_t src = 0; src < n; ++src) {
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        const std::size_t paths = topo->path_count(src, dst);
        ASSERT_GE(paths, 1u);
        for (std::uint32_t k = 0; k < paths; ++k) {
          links.clear();
          topo->append_path_links(src, dst, k, links);
          ASSERT_GE(links.size(), 2u);
          // Canonical port ids frame the path.
          EXPECT_EQ(links.front(), static_cast<Topology::LinkId>(src));
          EXPECT_EQ(links.back(), static_cast<Topology::LinkId>(n + dst));
          // The link chain is a walk: head of each link = tail of the next.
          std::set<std::uint32_t> visited;
          EXPECT_EQ(topo->link_ends(links.front()).tail, src);
          EXPECT_EQ(topo->link_ends(links.back()).head, dst);
          for (std::size_t l = 0; l + 1 < links.size(); ++l) {
            EXPECT_EQ(topo->link_ends(links[l]).head,
                      topo->link_ends(links[l + 1]).tail);
          }
          // Loop-free: no graph node is entered twice.
          visited.insert(src);
          for (const auto link : links) {
            EXPECT_TRUE(visited.insert(topo->link_ends(link).head).second)
                << "node revisited on path " << k << " of (" << src << ","
                << dst << ")";
          }
        }
      }
    }
  }
}

TEST_P(RoutingProperty, CapacityHoldsUnderFaultsAndReroutes) {
  // Oversubscribed leaf-spine (uplinks are genuine bottlenecks), random
  // faults, and a mid-session re-route through set_network: the decorator
  // fails the test if any allocation ever exceeds a current link capacity.
  const std::uint64_t seed = GetParam();
  const auto topo = Topology::leaf_spine(4, 3, 2, 10.0, 4.0);
  const FlowMatrix m = random_flows(topo->nodes(), seed, 0.5);

  for (const char* allocator : {"fair", "madd", "varys"}) {
    auto checked = std::make_unique<testing::InvariantCheckedAllocator>(
        make_allocator(allocator));
    auto* checker = checked.get();
    Simulator sim(
        std::make_shared<const RoutedTopology>(topo, route_ecmp(*topo)),
        std::move(checked));
    util::Pcg32 rng(util::derive_seed(seed, 11), 11);
    RandomFaultOptions fopts;
    fopts.horizon = 8.0;
    fopts.outage = 3.0;
    sim.set_faults(FaultSchedule::random(sim.network(), fopts, rng));
    sim.add_coflow(CoflowSpec("a", 0.0, m));
    const SimReport first = sim.run();
    EXPECT_GT(first.events, 0u);

    // Re-route the next epoch onto the joint choice; the fault schedule is
    // revalidated against the replacement network.
    sim.reset_epoch();
    checker->reset_epoch();
    sim.set_network(
        std::make_shared<const RoutedTopology>(
            topo, route_joint(*topo, Demand::from_matrix(m))));
    sim.add_coflow(CoflowSpec("b", 0.0, m));
    const SimReport second = sim.run();
    EXPECT_GT(second.events, 0u);
    EXPECT_GT(checker->epochs(), 0u);
  }
}

TEST_P(RoutingProperty, JointNeverWorseThanEcmpOnGamma) {
  const std::uint64_t seed = GetParam();
  for (const auto& topo : families(seed)) {
    const Demand d = Demand::from_matrix(random_flows(topo->nodes(), seed, 0.5));
    const double ecmp = routed_gamma(*topo, d, route_ecmp(*topo));
    const double joint = routed_gamma(*topo, d, route_joint(*topo, d));
    EXPECT_LE(joint, ecmp * (1.0 + 1e-12)) << "kind "
                                           << static_cast<int>(topo->kind());
  }
}

TEST_P(RoutingProperty, JointNeverWorseThanEcmpOnSimulatedCct) {
  // Single coflow under MADD: the simulated CCT equals the routed Γ, so the
  // optimizer's analytic guarantee must carry through the simulator.
  const std::uint64_t seed = GetParam();
  const auto topo = Topology::leaf_spine(4, 4, 2, 10.0, 4.0);
  const FlowMatrix m = random_flows(topo->nodes(), seed + 500, 0.6);

  const auto run = [&](RouteChoice choice) {
    Simulator sim(
        std::make_shared<const RoutedTopology>(topo, std::move(choice)),
        make_allocator("madd"));
    sim.add_coflow(CoflowSpec("c", 0.0, m));
    return sim.run().coflows[0].cct();
  };
  const double ecmp = run(route_ecmp(*topo));
  const double joint = run(route_joint(*topo, Demand::from_matrix(m)));
  EXPECT_LE(joint, ecmp * (1.0 + 1e-9));
}

TEST(RouteLeastLoaded, GammaNeverWorseThanEcmp) {
  // The load-aware routers on a 4 x 3 leaf-spine over 3 spines with 15 B/s
  // spine links: the volume-greedy router (each flow onto its least-loaded
  // path) and route_joint on top of it both beat or tie static ECMP.
  const auto topo = Topology::leaf_spine(4, 3, 3, 10.0, 2.0 / 3.0);
  ASSERT_NEAR(topo->link_capacity(2 * 12), 15.0, 1e-12);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Pcg32 rng(util::derive_seed(seed, 91), 91);
    Demand d(12);
    for (std::uint32_t i = 0; i < 12; ++i) {
      for (std::uint32_t j = 0; j < 12; ++j) {
        if (i != j && rng.uniform01() < 0.4) d.add(i, j, rng.uniform(1.0, 200.0));
      }
    }
    const double ecmp = routed_gamma(*topo, d, route_ecmp(*topo));
    EXPECT_LE(routed_gamma(*topo, d, route_greedy(*topo, d)),
              ecmp * 1.001 + 1e-9)
        << "seed " << seed;
    EXPECT_LE(routed_gamma(*topo, d, route_joint(*topo, d)),
              ecmp * 1.001 + 1e-9)
        << "seed " << seed;
  }
}

TEST(RoutingPolicy, RegistryShapesAndValidation) {
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 1.0);
  const FlowMatrix m = random_flows(topo->nodes(), 3, 0.8);
  for (const char* name : {"ecmp", "greedy", "joint"}) {
    const auto policy = make_routing_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
    const RouteChoice choice = policy->choose(*topo, Demand::from_matrix(m));
    // Every policy's choice binds cleanly (ctor validates path indices).
    RoutedTopology routed(topo, choice);
    EXPECT_EQ(routed.nodes(), topo->nodes());
  }
  EXPECT_THROW(make_routing_policy("bogus"), std::invalid_argument);
  EXPECT_THROW(route_joint(*topo, Demand(3)), std::invalid_argument);
}

TEST(SetNetwork, RejectsMismatchedOrLateSwaps) {
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 1.0);
  Simulator sim(std::make_shared<const Fabric>(4, 10.0),
                make_allocator("madd"));
  EXPECT_THROW(sim.set_network(nullptr), std::invalid_argument);
  EXPECT_THROW(sim.set_network(std::make_shared<const Fabric>(5, 10.0)),
               std::invalid_argument);

  FlowMatrix m(4);
  m.set(0, 1, 100.0);
  sim.add_coflow(CoflowSpec("c", 0.0, m));
  sim.run();
  // After run(): only reset_epoch reopens the swap window.
  EXPECT_THROW(sim.set_network(std::make_shared<const RoutedTopology>(
                   topo, route_ecmp(*topo))),
               std::logic_error);
  sim.reset_epoch();
  sim.set_network(
      std::make_shared<const RoutedTopology>(topo, route_ecmp(*topo)));
  sim.add_coflow(CoflowSpec("c", 0.0, m));
  EXPECT_EQ(sim.run().coflows.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace ccf::net
