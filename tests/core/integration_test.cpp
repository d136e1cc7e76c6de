// Full-stack integration: tuple-level TPC-H data drives the same pipeline the
// paper-scale benches run analytically, and the two paths must agree.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "core/skew_handling.hpp"
#include "data/skew.hpp"
#include "data/tpch.hpp"
#include "join/exec.hpp"
#include "join/flows.hpp"
#include "join/local_join.hpp"
#include "join/schedulers.hpp"
#include "net/metrics.hpp"
#include "testing/engine_session.hpp"

namespace ccf {
namespace {

struct JoinFixture {
  data::DistributedRelation customer;
  data::DistributedRelation orders;
  std::shared_ptr<const data::Workload> workload;
  std::size_t partitions;
};

JoinFixture make_setup(double skew) {
  data::TpchConfig cfg;
  cfg.scale_factor = 0.02;  // 3000 customers, 30000 orders
  cfg.nodes = 5;
  cfg.zipf_theta = 0.8;
  cfg.seed = 77;
  auto customer = generate_customer(cfg);
  auto orders = generate_orders(cfg);
  if (skew > 0.0) {
    util::Pcg32 rng(5, 5);
    data::inject_skew(orders, skew, 1, rng);
  }
  const std::size_t partitions = 75;  // 15 * nodes, the paper's ratio
  auto workload = std::make_shared<const data::Workload>(
      data::workload_from_tuples(customer, orders, partitions, 1));
  return JoinFixture{std::move(customer), std::move(orders), std::move(workload),
               partitions};
}

TEST(Integration, PipelineTrafficEqualsTupleExecutorTraffic) {
  const JoinFixture s = make_setup(0.2);
  for (const char* name : {"hash", "mini", "ccf"}) {
    const core::QuerySpec query =
        core::QuerySpec::paper_system(name, s.workload);
    const core::RunReport report = ccf::testing::run_one(query);

    // Recreate the pipeline's placement decision and execute at tuple level.
    const core::PreparedInput prepared =
        core::apply_partial_duplication(*s.workload, query.skew_handling);
    const opt::AssignmentProblem problem = prepared.problem();
    const auto dest = join::make_scheduler(name)->schedule(problem);
    const auto exec = join::execute_distributed_join(
        s.customer, s.orders, s.partitions, dest,
        query.skew_handling ? &s.workload->skew : nullptr);

    EXPECT_NEAR(report.traffic_bytes, exec.flows.traffic(),
                1e-6 * report.traffic_bytes)
        << name;
  }
}

TEST(Integration, JoinResultInvariantAcrossAllSystems) {
  const JoinFixture s = make_setup(0.2);
  const auto truth = join::reference_join_cardinality(s.customer, s.orders);
  for (const char* name : {"hash", "mini", "ccf", "ccf-ls", "random"}) {
    for (const bool skew_handling : {false, true}) {
      const core::PreparedInput prepared =
          core::apply_partial_duplication(*s.workload, skew_handling);
      const opt::AssignmentProblem problem = prepared.problem();
      const auto dest = join::make_scheduler(name)->schedule(problem);
      const auto exec = join::execute_distributed_join(
          s.customer, s.orders, s.partitions, dest,
          skew_handling ? &s.workload->skew : nullptr);
      EXPECT_EQ(exec.result_tuples, truth)
          << name << " skew_handling=" << skew_handling;
    }
  }
}

TEST(Integration, TupleLevelCctOrderingMatchesPaper) {
  // Even at toy scale with real tuples, the headline ordering holds on the
  // zipf-aligned workload: CCF <= Hash and CCF <= Mini in CCT.
  const JoinFixture s = make_setup(0.2);
  auto cct_of = [&](const char* name) {
    return ccf::testing::run_one(
               core::QuerySpec::paper_system(name, s.workload))
        .cct_seconds;
  };
  const double ccf = cct_of("ccf");
  EXPECT_LE(ccf, cct_of("hash") + 1e-12);
  EXPECT_LE(ccf, cct_of("mini") + 1e-12);
}

TEST(Integration, GammaBoundsTupleMeasuredFlows) {
  // The analytic Γ of the pipeline's flow matrix equals Γ of the flows the
  // tuple executor actually produced.
  const JoinFixture s = make_setup(0.3);
  const core::PreparedInput prepared =
      core::apply_partial_duplication(*s.workload, true);
  const opt::AssignmentProblem problem = prepared.problem();
  const auto dest = join::CcfScheduler().schedule(problem);
  const auto analytic =
      join::assignment_flows(prepared.residual, dest, prepared.initial_flows);
  const auto exec = join::execute_distributed_join(
      s.customer, s.orders, s.partitions, dest, &s.workload->skew);
  const net::Fabric fabric(5);
  EXPECT_NEAR(net::gamma_bound(analytic, fabric),
              net::gamma_bound(exec.flows, fabric),
              1e-6 * net::gamma_bound(analytic, fabric) + 1e-12);
}

}  // namespace
}  // namespace ccf
