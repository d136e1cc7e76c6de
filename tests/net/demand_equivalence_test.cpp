// Pins the demand plane's dense ≡ sparse bit-identity (net/demand.hpp's
// equivalence contract) across the whole consumer surface: for the same
// traffic expressed as a FlowMatrix and as a Demand,
//
//  * every routing policy (ecmp | greedy | joint) picks the identical
//    RouteChoice from either representation,
//  * routed Γ and the link metrics agree bitwise,
//  * every allocator simulates the coflow to the identical completion times
//    whether it was registered dense (CoflowSpec) or sparse
//    (SparseCoflowSpec from Demand::to_flows),
//  * and a core::Engine epoch produces identical numbers for a dense
//    prebuilt submission and the equivalent sparse submission.
//
// This suite is what allows the rest of the codebase to treat the columnar
// path as a pure representation change.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "net/demand.hpp"
#include "net/multipath.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

constexpr const char* kAllocators[] = {"fair", "madd", "varys", "aalo",
                                       "varys-edf"};
constexpr const char* kRoutings[] = {"ecmp", "greedy", "joint"};

std::shared_ptr<const Topology> leafspine() {
  TopologySpec spec =
      TopologySpec::parse("leafspine:racks=4,hosts=2,spines=2,oversub=2");
  spec.host_rate = 100.0;
  return make_topology(spec);
}

/// The same pseudo-random shuffle, built through both representations with
/// identical insertion order (duplicates included).
void build_pair(FlowMatrix& matrix, Demand& demand, std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 7), 7);
  for (int k = 0; k < 40; ++k) {
    const auto src = rng.bounded(8);
    const auto dst = rng.bounded(8);
    const double volume = rng.uniform(1.0, 5000.0);
    if (src == dst) continue;
    matrix.add(src, dst, volume);
    demand.add(src, dst, volume);
  }
  // Ensure at least one entry even for a pathological seed.
  if (matrix.traffic() <= 0.0) {
    matrix.add(0, 1, 100.0);
    demand.add(0, 1, 100.0);
  }
}

TEST(DemandEquivalence, EveryRoutingPolicyPicksTheSameRoutes) {
  const auto topo = leafspine();
  FlowMatrix matrix(8);
  Demand demand(8);
  build_pair(matrix, demand, 11);

  for (const char* routing : kRoutings) {
    const auto policy = make_routing_policy(routing);
    const RouteChoice dense = policy->choose(*topo, Demand::from_matrix(matrix));
    const RouteChoice sparse = policy->choose(*topo, demand);
    EXPECT_EQ(dense, sparse) << routing;
    EXPECT_EQ(routed_gamma(*topo, Demand::from_matrix(matrix), dense),
              routed_gamma(*topo, demand, sparse))
        << routing;
  }
  EXPECT_EQ(route_greedy(*topo, Demand::from_matrix(matrix)),
            route_greedy(*topo, demand));
}

TEST(DemandEquivalence, EveryAllocatorSimulatesIdenticallyDenseVsSparse) {
  const auto topo = leafspine();
  FlowMatrix matrix(8);
  Demand demand(8);
  build_pair(matrix, demand, 23);

  for (const char* routing : kRoutings) {
    const auto policy = make_routing_policy(routing);
    for (const char* allocator : kAllocators) {
      Simulator dense_sim(std::make_shared<const RoutedTopology>(
                              topo, policy->choose(
                                        *topo, Demand::from_matrix(matrix))),
                          make_allocator(allocator));
      dense_sim.add_coflow(CoflowSpec("c", 0.0, matrix));
      const SimReport dense = dense_sim.run();

      Simulator sparse_sim(std::make_shared<const RoutedTopology>(
                               topo, policy->choose(*topo, demand)),
                           make_allocator(allocator));
      sparse_sim.add_coflow(SparseCoflowSpec("c", 0.0, demand.to_flows()));
      const SimReport sparse = sparse_sim.run();

      ASSERT_EQ(sparse.coflows.size(), dense.coflows.size())
          << allocator << "/" << routing;
      EXPECT_EQ(sparse.coflows[0].completion, dense.coflows[0].completion)
          << allocator << "/" << routing;
      EXPECT_EQ(sparse.events, dense.events) << allocator << "/" << routing;
      EXPECT_EQ(sparse.total_bytes, dense.total_bytes)
          << allocator << "/" << routing;
    }
  }
}

TEST(DemandEquivalence, EngineEpochMatchesDensePrebuiltVsSparseSubmission) {
  FlowMatrix matrix(8);
  Demand demand(8);
  build_pair(matrix, demand, 37);

  for (const char* allocator : kAllocators) {
    core::EngineOptions dense_options;
    dense_options.nodes = 8;
    dense_options.allocator = allocator;
    core::Engine dense_engine(std::move(dense_options));
    dense_engine.submit("c", 0.0, FlowMatrix(matrix));
    const core::EngineReport dense = dense_engine.drain();

    core::EngineOptions sparse_options;
    sparse_options.nodes = 8;
    sparse_options.allocator = allocator;
    core::Engine sparse_engine(std::move(sparse_options));
    SparseCoflowSpec spec("c", 0.0, demand.to_flows());
    sparse_engine.submit(std::move(spec));
    const core::EngineReport sparse = sparse_engine.drain();

    ASSERT_EQ(sparse.queries.size(), dense.queries.size()) << allocator;
    EXPECT_EQ(sparse.queries[0].traffic_bytes, dense.queries[0].traffic_bytes)
        << allocator;
    EXPECT_EQ(sparse.queries[0].gamma_seconds, dense.queries[0].gamma_seconds)
        << allocator;
    EXPECT_EQ(sparse.queries[0].cct_seconds, dense.queries[0].cct_seconds)
        << allocator;
    EXPECT_EQ(sparse.queries[0].flow_count, dense.queries[0].flow_count)
        << allocator;
    ASSERT_EQ(sparse.sim.coflows.size(), dense.sim.coflows.size())
        << allocator;
    for (std::size_t c = 0; c < dense.sim.coflows.size(); ++c) {
      EXPECT_EQ(sparse.sim.coflows[c].completion,
                dense.sim.coflows[c].completion)
          << allocator << " coflow " << c;
    }
    EXPECT_EQ(sparse.sim.events, dense.sim.events) << allocator;
  }
}

TEST(DemandEquivalence, RoutedEngineEpochMatchesDenseVsSparse) {
  FlowMatrix matrix(8);
  Demand demand(8);
  build_pair(matrix, demand, 53);

  for (const char* routing : kRoutings) {
    core::EngineOptions dense_options;
    dense_options.nodes = 8;
    dense_options.topology = "leafspine:racks=4,hosts=2,spines=2,oversub=2";
    dense_options.routing = routing;
    core::Engine dense_engine(std::move(dense_options));
    dense_engine.submit("c", 0.0, FlowMatrix(matrix));
    const core::EngineReport dense = dense_engine.drain();

    core::EngineOptions sparse_options;
    sparse_options.nodes = 8;
    sparse_options.topology = "leafspine:racks=4,hosts=2,spines=2,oversub=2";
    sparse_options.routing = routing;
    core::Engine sparse_engine(std::move(sparse_options));
    sparse_engine.submit(SparseCoflowSpec("c", 0.0, demand.to_flows()));
    const core::EngineReport sparse = sparse_engine.drain();

    ASSERT_EQ(sparse.sim.coflows.size(), dense.sim.coflows.size()) << routing;
    EXPECT_EQ(sparse.sim.coflows[0].completion, dense.sim.coflows[0].completion)
        << routing;
    EXPECT_EQ(sparse.sim.events, dense.sim.events) << routing;
  }
}

}  // namespace
}  // namespace ccf::net
