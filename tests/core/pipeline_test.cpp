// The single-join path of the paper's evaluation: one query, drained as the
// only query of a fresh Engine session.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "testing/engine_session.hpp"

namespace ccf::core {
namespace {

using ccf::testing::drain_one;
using ccf::testing::run_one;

std::shared_ptr<const data::Workload> small_workload(double skew = 0.2,
                                                     double zipf = 0.8) {
  data::WorkloadSpec spec;
  spec.nodes = 10;
  spec.partitions = 150;
  spec.customer_bytes = 9e7;
  spec.orders_bytes = 9e8;
  spec.zipf_theta = zipf;
  spec.skew = skew;
  spec.seed = 21;
  return std::make_shared<const data::Workload>(data::generate_workload(spec));
}

TEST(PaperSystem, FlagsMatchPaperSetup) {
  const auto w = small_workload();
  const auto hash = QuerySpec::paper_system("hash", w);
  EXPECT_FALSE(hash.skew_handling);
  EXPECT_EQ(EngineOptions{}.allocator, "madd");
  const auto mini = QuerySpec::paper_system("mini", w);
  EXPECT_TRUE(mini.skew_handling);
  const auto ccf = QuerySpec::paper_system("ccf", w);
  EXPECT_TRUE(ccf.skew_handling);
}

TEST(RunPipeline, ReportFieldsAreConsistent) {
  const auto w = small_workload();
  const RunReport r = run_one(QuerySpec::paper_system("ccf", w));
  EXPECT_EQ(r.scheduler, "ccf");
  EXPECT_TRUE(r.skew_handled);
  EXPECT_GT(r.traffic_bytes, 0.0);
  EXPECT_GT(r.flow_count, 0u);
  EXPECT_GT(r.cct_seconds, 0.0);
  // Under MADD the simulated CCT equals the analytic bound.
  EXPECT_NEAR(r.cct_seconds, r.gamma_seconds, 1e-6 * r.gamma_seconds);
  // T (bytes) / port rate == gamma (seconds).
  EXPECT_NEAR(r.makespan_bytes / net::Fabric::kDefaultPortRate,
              r.gamma_seconds, 1e-9 * r.gamma_seconds);
  EXPECT_GE(r.schedule_seconds, 0.0);
}

TEST(RunPipeline, AnalyticModeSkipsSimulation) {
  const auto w = small_workload();
  EngineOptions opts;
  opts.simulate = false;
  const EngineReport epoch = drain_one(QuerySpec::paper_system("ccf", w), opts);
  const RunReport& r = epoch.queries.front();
  EXPECT_DOUBLE_EQ(r.cct_seconds, r.gamma_seconds);
  EXPECT_TRUE(epoch.sim.coflows.empty());
}

TEST(RunPipeline, AnalyticEqualsSimulatedForAllPaperSystems) {
  const auto w = small_workload();
  EngineOptions analytic;
  analytic.simulate = false;
  for (const char* name : {"hash", "mini", "ccf"}) {
    const double sim_cct =
        run_one(QuerySpec::paper_system(name, w)).cct_seconds;
    const double ana_cct =
        run_one(QuerySpec::paper_system(name, w), analytic).cct_seconds;
    EXPECT_NEAR(sim_cct, ana_cct, 1e-6 * ana_cct + 1e-12) << name;
  }
}

TEST(RunPipeline, CcfFastestOnPaperStyleWorkload) {
  const auto w = small_workload();
  const double hash = run_one(QuerySpec::paper_system("hash", w)).cct_seconds;
  const double mini = run_one(QuerySpec::paper_system("mini", w)).cct_seconds;
  const double ccf = run_one(QuerySpec::paper_system("ccf", w)).cct_seconds;
  EXPECT_LT(ccf, hash);
  EXPECT_LT(ccf, mini);
}

TEST(RunPipeline, MiniHasLeastTrafficWithoutSkewHandling) {
  // With skew handling off for everyone, Mini minimizes traffic by design.
  const auto w = small_workload();
  QuerySpec query("q", w, "mini");
  query.skew_handling = false;
  const double mini = run_one(query).traffic_bytes;
  for (const char* name : {"hash", "ccf"}) {
    query.scheduler = name;
    EXPECT_LE(mini, run_one(query).traffic_bytes + 1e-6) << name;
  }
}

TEST(RunPipeline, SkewHandlingReducesTrafficAndCct) {
  const auto w = small_workload(0.4);
  const QuerySpec with = QuerySpec::paper_system("ccf", w);
  QuerySpec without = with;
  without.skew_handling = false;
  const RunReport rw = run_one(with);
  const RunReport ro = run_one(without);
  EXPECT_LT(rw.traffic_bytes, ro.traffic_bytes);
  EXPECT_LE(rw.cct_seconds, ro.cct_seconds + 1e-9);
}

TEST(RunPipeline, PortRateScalesCct) {
  const auto w = small_workload();
  EngineOptions fast;
  EngineOptions slow;
  fast.port_rate = 250e6;
  slow.port_rate = 125e6;
  const double f = run_one(QuerySpec::paper_system("ccf", w), fast).cct_seconds;
  const double s = run_one(QuerySpec::paper_system("ccf", w), slow).cct_seconds;
  EXPECT_NEAR(s / f, 2.0, 1e-6);
}

TEST(RunPipeline, HashSeesFullSkewHotspot) {
  // Without skew handling the hot partition floods one ingress port: Hash's
  // bottleneck must be at least the remote share of the skewed mass.
  const auto w = small_workload(0.5);
  const RunReport r = run_one(QuerySpec::paper_system("hash", w));
  const double skewed = w->skew.skewed_bytes_total();
  EXPECT_GT(r.makespan_bytes, 0.5 * skewed);
}

TEST(RunPipeline, FaultScheduleStretchesSimulatedCct) {
  const auto w = small_workload();
  EngineOptions clean;
  EngineOptions faulty;
  // Halve every port of node 0 for the whole run: the simulated CCT must
  // strictly exceed the fault-free run, and the analytic Γ must not move.
  faulty.faults.slow_node(0.0, 0, 0.5);
  const EngineReport ec = drain_one(QuerySpec::paper_system("ccf", w), clean);
  const EngineReport ef = drain_one(QuerySpec::paper_system("ccf", w), faulty);
  const RunReport& rc = ec.queries.front();
  const RunReport& rf = ef.queries.front();
  EXPECT_GT(rf.cct_seconds, rc.cct_seconds);
  EXPECT_DOUBLE_EQ(rf.gamma_seconds, rc.gamma_seconds);
  EXPECT_GT(ef.sim.fault_events, 0u);
  EXPECT_NEAR(ef.sim.total_bytes, ec.sim.total_bytes,
              1e-9 * (1.0 + ec.sim.total_bytes));
}

TEST(RunPipeline, EmptyFaultScheduleChangesNothing) {
  const auto w = small_workload();
  EngineOptions opts;
  const EngineReport a = drain_one(QuerySpec::paper_system("ccf", w), opts);
  opts.faults = net::FaultSchedule{};  // explicit empty schedule
  opts.fault_options.replace_on_failure = true;
  const EngineReport b = drain_one(QuerySpec::paper_system("ccf", w), opts);
  EXPECT_EQ(a.queries.front().cct_seconds, b.queries.front().cct_seconds);
  EXPECT_EQ(b.sim.fault_events, 0u);
}

TEST(RunPipeline, UnknownSchedulerThrows) {
  const auto w = small_workload();
  EXPECT_THROW(run_one(QuerySpec("q", w, "nope")), std::invalid_argument);
}

}  // namespace
}  // namespace ccf::core
