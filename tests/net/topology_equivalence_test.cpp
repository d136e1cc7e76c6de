// Topology equivalence suite (DESIGN.md §12): the general topology layer
// must *degenerate exactly* to the networks it generalizes.
//
//  1. A leaf-spine whose spine layer is provisioned above the rack's worst
//     case (oversub <= 1/spines, so every uplink's capacity exceeds the
//     aggregate host rate behind it) is indistinguishable from the paper's
//     flat non-blocking Fabric: the spine links can never be the fill
//     bottleneck (mediant inequality: cap_up >= rem_e0 + rem_e1 while
//     load_up <= load_e0 + load_e1), so every allocator produces the same
//     schedule bit for bit — identical event counts, completions and byte
//     totals, under every routing policy.
//  2. A fat-tree with its route-sets collapsed to one path per pair is the
//     same network as a single-spine leaf-spine with rack r = global edge r:
//     the binding edge<->agg links map one-to-one (same capacities, same
//     flow sets, same relative id order) and the agg<->core layer is slack.
//
// Both hold at the Simulator level for every registered allocator and at the
// Engine level for every placement scheduler x allocator pair (the session
// plumbing — per-epoch demand aggregation, set_network, routed simulation —
// must not perturb the schedule either).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "data/workload.hpp"
#include "net/multipath.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "testing/invariants.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

FlowMatrix random_matrix(std::size_t n, util::Pcg32& rng, double density,
                         double max_volume) {
  FlowMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform01() < density) {
        m.set(i, j, rng.uniform(1.0, max_volume));
      }
    }
  }
  return m;
}

/// Same shape as engine_equivalence_test's workload: staggered arrivals,
/// per-flow start offsets, admit/reject deadlines, an empty coflow.
std::vector<CoflowSpec> make_workload(std::size_t nodes, std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 7), 7);
  std::vector<CoflowSpec> specs;
  for (std::size_t c = 0; c < 6; ++c) {
    CoflowSpec spec("c" + std::to_string(c), rng.uniform(0.0, 3.0),
                    random_matrix(nodes, rng, 0.4, 200.0));
    if (c % 3 == 1) {
      FlowMatrix offsets(nodes);
      for (std::size_t i = 0; i < nodes; ++i) {
        for (std::size_t j = 0; j < nodes; ++j) {
          if (spec.flows.volume(i, j) > 0.0) {
            offsets.set(i, j, rng.uniform(0.0, 0.5));
          }
        }
      }
      spec.start_offsets = std::move(offsets);
    }
    if (c % 4 == 2) spec.deadline = rng.uniform(1e-6, 2e-5);
    if (c % 4 == 0) spec.deadline = 1e3;
    specs.push_back(std::move(spec));
  }
  specs.push_back(CoflowSpec("empty", 1.0, FlowMatrix(nodes)));
  return specs;
}

/// Aggregate demand of a whole workload — what the demand-aware routing
/// policies (greedy, joint) key their choices on.
FlowMatrix aggregate_demand(const std::vector<CoflowSpec>& specs,
                            std::size_t nodes) {
  FlowMatrix demand(nodes);
  for (const auto& spec : specs) {
    for (std::size_t i = 0; i < nodes; ++i) {
      for (std::size_t j = 0; j < nodes; ++j) {
        if (i != j) demand.add(i, j, spec.flows.volume(i, j));
      }
    }
  }
  return demand;
}

SimReport run_sim(const std::vector<CoflowSpec>& specs,
                  std::shared_ptr<const Network> network,
                  const std::string& allocator) {
  Simulator sim(std::move(network), testing::make_invariant_checked(allocator));
  for (const auto& spec : specs) sim.add_coflow(spec);
  return sim.run();
}

/// Bit-identical schedules: exact equality, not a tolerance — the point of
/// the suite is that the degenerate topologies are the *same* computation.
void expect_identical(const SimReport& a, const SimReport& b) {
  ASSERT_EQ(a.events, b.events);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t c = 0; c < a.coflows.size(); ++c) {
    EXPECT_EQ(a.coflows[c].rejected, b.coflows[c].rejected) << a.coflows[c].name;
    EXPECT_EQ(a.coflows[c].completion, b.coflows[c].completion)
        << a.coflows[c].name;
    EXPECT_EQ(a.coflows[c].bytes, b.coflows[c].bytes) << a.coflows[c].name;
  }
}

using Combo = std::tuple<std::uint64_t, std::string>;

class TopologyEquivalence : public ::testing::TestWithParam<Combo> {};

TEST_P(TopologyEquivalence, NonOversubscribedLeafSpineMatchesFlatFabric) {
  const auto& [seed, allocator] = GetParam();
  const auto specs = make_workload(6, seed);
  const auto flat = run_sim(
      specs, std::make_shared<const Fabric>(6, 10.0), allocator);

  // oversub = 0.25 with 2 spines: each uplink carries 2 * 10 / (0.25 * 2)
  // = 40 B/s against at most 20 B/s of host demand behind it.
  const auto topo = Topology::leaf_spine(3, 2, 2, 10.0, 0.25);
  const Demand demand = Demand::from_matrix(aggregate_demand(specs, 6));
  const std::vector<std::pair<std::string, RouteChoice>> routings = {
      {"ecmp", route_ecmp(*topo)},
      {"greedy", route_greedy(*topo, demand)},
      {"joint", route_joint(*topo, demand)},
  };
  for (const auto& [name, choice] : routings) {
    const auto routed =
        std::make_shared<const RoutedTopology>(topo, choice);
    const auto report = run_sim(specs, routed, allocator);
    SCOPED_TRACE("routing=" + name);
    expect_identical(flat, report);
  }
}

TEST_P(TopologyEquivalence, CollapsedFatTreeMatchesSinglePathLeafSpine) {
  const auto& [seed, allocator] = GetParam();
  const auto specs = make_workload(16, seed);

  // k = 4 fat-tree, agg<->core layer scaled to 100x the host rate (slack by
  // construction), all routes collapsed to path 0 — against the single-spine
  // leaf-spine with rack r standing in for global edge r (uplink capacity
  // 2 * 10 / (2 * 1) = 10 = the edge->agg link it maps onto).
  const auto fat = Topology::fat_tree(4, 10.0, 0.01);
  const auto spine = Topology::leaf_spine(8, 2, 1, 10.0, 2.0);
  const auto fat_report = run_sim(
      specs,
      std::make_shared<const RoutedTopology>(fat, route_collapsed(*fat)),
      allocator);
  const auto spine_report = run_sim(
      specs,
      std::make_shared<const RoutedTopology>(spine, route_collapsed(*spine)),
      allocator);
  expect_identical(fat_report, spine_report);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopologyEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values("fair", "madd", "varys", "aalo",
                                         "varys-edf")),
    [](const ::testing::TestParamInfo<Combo>& param_info) {
      std::string alloc = std::get<1>(param_info.param);
      for (char& ch : alloc) {
        if (ch == '-') ch = '_';  // gtest names must be identifiers
      }
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_" + alloc;
    });

}  // namespace
}  // namespace ccf::net

namespace ccf::core {
namespace {

data::Workload tiny_workload(std::uint64_t seed) {
  data::WorkloadSpec spec;
  spec.nodes = 4;
  spec.partitions = 8;
  spec.customer_bytes = 4e6;
  spec.orders_bytes = 4e7;
  spec.zipf_theta = 0.8;
  spec.skew = 0.3;
  spec.seed = seed;
  return data::generate_workload(spec);
}

std::vector<std::string> names(std::span<const std::string_view> views) {
  return {views.begin(), views.end()};
}

using EngineCombo = std::tuple<std::string, std::string>;

class EngineTopologyEquivalence
    : public ::testing::TestWithParam<EngineCombo> {};

// The Engine's routed-session plumbing (epoch demand aggregation,
// Simulator::set_network, per-drain re-routing) on a non-oversubscribed
// leaf-spine must reproduce the flat-fabric session exactly, for every
// placement scheduler x allocator pair the registry knows.
TEST_P(EngineTopologyEquivalence, RoutedSessionMatchesFlatSession) {
  const auto& [scheduler, allocator] = GetParam();

  EngineOptions flat_opts;
  flat_opts.nodes = 4;
  flat_opts.allocator = allocator;
  Engine flat(flat_opts);

  EngineOptions topo_opts;
  topo_opts.nodes = 0;  // derived from the topology
  topo_opts.allocator = allocator;
  topo_opts.topology = "leafspine:racks=2,hosts=2,spines=2,oversub=0.25";
  Engine routed(std::move(topo_opts));
  ASSERT_NE(routed.topology(), nullptr);
  ASSERT_EQ(routed.fabric().nodes(), 4u);

  for (const std::uint64_t seed : {21u, 22u}) {
    const auto w = std::make_shared<const data::Workload>(tiny_workload(seed));
    flat.submit(QuerySpec("q", w, scheduler));
    routed.submit(QuerySpec("q", w, scheduler));
    const EngineReport a = flat.drain();
    const EngineReport b = routed.drain();
    ASSERT_EQ(a.queries.size(), b.queries.size());
    ASSERT_EQ(a.sim.events, b.sim.events);
    EXPECT_EQ(a.sim.makespan, b.sim.makespan);
    EXPECT_EQ(a.sim.total_bytes, b.sim.total_bytes);
    ASSERT_EQ(a.sim.coflows.size(), b.sim.coflows.size());
    for (std::size_t c = 0; c < a.sim.coflows.size(); ++c) {
      EXPECT_EQ(a.sim.coflows[c].completion, b.sim.coflows[c].completion);
      EXPECT_EQ(a.sim.coflows[c].bytes, b.sim.coflows[c].bytes);
    }
    EXPECT_EQ(a.queries.front().cct_seconds, b.queries.front().cct_seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineTopologyEquivalence,
    ::testing::Combine(::testing::ValuesIn(names(registry::scheduler_names())),
                       ::testing::ValuesIn(names(registry::allocator_names()))),
    [](const ::testing::TestParamInfo<EngineCombo>& param_info) {
      std::string label =
          std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
      for (char& ch : label) {
        if (ch == '-') ch = '_';  // gtest names must be identifiers
      }
      return label;
    });

}  // namespace
}  // namespace ccf::core
