// A multi-operator job as one Engine epoch: every operator is a query with
// its own arrival, and their coflows contend under the inter-coflow policy.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/concurrent.hpp"
#include "core/engine.hpp"

namespace ccf::core {
namespace {

data::WorkloadSpec op_spec(std::uint64_t seed, double scale = 1.0) {
  data::WorkloadSpec spec;
  spec.nodes = 8;
  spec.partitions = 80;
  spec.customer_bytes = 1e7 * scale;
  spec.orders_bytes = 1e8 * scale;
  spec.skew = 0.1;
  spec.seed = seed;
  return spec;
}

std::vector<OperatorSpec> three_ops() {
  return {OperatorSpec{"scan-join", 0.0, op_spec(1)},
          OperatorSpec{"dim-join", 2.0, op_spec(2, 0.5)},
          OperatorSpec{"agg", 5.0, op_spec(3, 0.25)}};
}

/// The whole job as one epoch of a session sized to its first operator.
EngineReport drain_job(const std::vector<OperatorSpec>& operators,
                       const JobOptions& options) {
  EngineOptions eopts;
  eopts.nodes = operators.empty() ? 0 : operators.front().workload.nodes;
  eopts.port_rate = options.port_rate;
  eopts.allocator = options.allocator;
  Engine engine(std::move(eopts));
  for (const OperatorSpec& op : operators) {
    QuerySpec query(op.name, data::generate_workload(op.workload),
                    options.scheduler, op.arrival);
    query.skew_handling = options.skew_handling;
    engine.submit(std::move(query));
  }
  return engine.drain();
}

TEST(RunJob, ReportsPerOperatorCcts) {
  JobOptions opts;
  const EngineReport r = drain_job(three_ops(), opts);
  ASSERT_EQ(r.sim.coflows.size(), 3u);
  EXPECT_DOUBLE_EQ(r.sim.coflows[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(r.sim.coflows[1].arrival, 2.0);
  for (const auto& c : r.sim.coflows) {
    EXPECT_GT(c.cct(), 0.0) << c.name;
    EXPECT_GE(c.completion, c.arrival) << c.name;
  }
  EXPECT_GT(r.total_traffic_bytes, 0.0);
  EXPECT_GE(r.schedule_seconds, 0.0);
  EXPECT_GE(r.sim.makespan, r.sim.coflows[2].completion - 1e-9);
}

TEST(RunJob, AllocatorsProduceDifferentAverageCct) {
  // With overlapping coflows FIFO vs SEBF ordering matters; at minimum the
  // runs must all complete and move identical bytes.
  double bytes = -1.0;
  for (const char* allocator :
       {"madd", "varys", "aalo", "fair", "sincronia", "lp-order"}) {
    JobOptions opts;
    opts.allocator = allocator;
    const EngineReport r = drain_job(three_ops(), opts);
    EXPECT_EQ(r.sim.coflows.size(), 3u);
    if (bytes < 0.0) {
      bytes = r.total_traffic_bytes;
    } else {
      EXPECT_NEAR(r.total_traffic_bytes, bytes, 1e-6);
    }
  }
}

TEST(RunJob, SchedulerChoiceAffectsJobMakespan) {
  JobOptions ccf_opts;
  ccf_opts.scheduler = "ccf";
  JobOptions mini_opts;
  mini_opts.scheduler = "mini";
  const double ccf = drain_job(three_ops(), ccf_opts).sim.makespan;
  const double mini = drain_job(three_ops(), mini_opts).sim.makespan;
  // Zipf-aligned chunks: Mini floods node 0, CCF balances.
  EXPECT_LT(ccf, mini);
}

TEST(RunJob, Errors) {
  // No operators: the session has no fabric width.
  EXPECT_THROW(drain_job({}, JobOptions{}), std::invalid_argument);
  auto ops = three_ops();
  ops[1].workload.nodes = 9;  // does not span the session fabric
  EXPECT_THROW(drain_job(ops, JobOptions{}), std::invalid_argument);
}

}  // namespace
}  // namespace ccf::core
