// Randomized full-pipeline invariants ("fuzz" sweep): for arbitrary workload
// shapes, the cross-layer accounting must stay consistent. Catches the class
// of bugs where scheduler, skew handler, flow builder and simulator disagree
// about what moved where.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "core/skew_handling.hpp"
#include "testing/engine_session.hpp"
#include "util/rng.hpp"

namespace ccf {
namespace {

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  data::WorkloadSpec random_spec() {
    util::Pcg32 rng(util::derive_seed(GetParam(), 71), 71);
    data::WorkloadSpec spec;
    spec.nodes = 1 + rng.bounded(30);
    spec.partitions = 1 + rng.bounded(200);
    spec.customer_bytes = rng.uniform(1e3, 1e7);
    spec.orders_bytes = rng.uniform(1e3, 1e8);
    spec.zipf_theta = rng.uniform(0.0, 2.0);
    spec.skew = rng.uniform(0.0, 0.9);
    spec.align_zipf_ranks = rng.uniform01() < 0.5;
    spec.jitter = rng.uniform(0.0, 0.1);
    spec.seed = GetParam() * 1000 + 7;
    return spec;
  }
};

TEST_P(FuzzPipeline, AccountingInvariantsHoldForEverySystem) {
  const auto spec = random_spec();
  const auto shared =
      std::make_shared<const data::Workload>(data::generate_workload(spec));
  const data::Workload& w = *shared;
  // The generated matrix conserves bytes.
  EXPECT_NEAR(w.matrix.total(), spec.total_bytes(),
              1e-6 * spec.total_bytes() + 1e-6);

  for (const char* name : {"hash", "mini", "ccf"}) {
    const core::EngineOptions opts;
    const core::EngineReport epoch =
        ccf::testing::drain_one(core::QuerySpec::paper_system(name, shared),
                                opts);
    const core::RunReport& r = epoch.queries.front();

    // Traffic can never exceed what exists (plus tiny broadcast mass).
    EXPECT_LE(r.traffic_bytes,
              w.matrix.total() +
                  spec.payload_bytes * static_cast<double>(spec.nodes) + 1e-6)
        << name;
    // MADD: simulated CCT == analytic Γ == T / port rate.
    EXPECT_NEAR(r.cct_seconds, r.gamma_seconds,
                1e-6 * r.gamma_seconds + 1e-12)
        << name;
    EXPECT_NEAR(r.gamma_seconds, r.makespan_bytes / opts.port_rate,
                1e-9 * r.gamma_seconds + 1e-12)
        << name;
    // The bottleneck port cannot carry more than all traffic, nor less than
    // the perfectly-balanced share.
    EXPECT_LE(r.makespan_bytes, r.traffic_bytes + 1e-6) << name;
    EXPECT_GE(r.makespan_bytes + 1e-6,
              r.traffic_bytes / static_cast<double>(spec.nodes))
        << name;
    // Simulation moved exactly the traffic.
    if (!epoch.sim.coflows.empty()) {
      EXPECT_NEAR(epoch.sim.total_bytes, r.traffic_bytes,
                  1e-6 * r.traffic_bytes + 1e-6)
          << name;
    }
  }
}

TEST_P(FuzzPipeline, SkewHandlerConservesBytes) {
  const auto spec = random_spec();
  const auto w = data::generate_workload(spec);
  const auto prepared = core::apply_partial_duplication(w, true);
  if (!prepared.skew_handled) return;
  EXPECT_NEAR(w.matrix.total(),
              prepared.residual.total() + prepared.pinned_local_bytes +
                  prepared.broadcast_removed_bytes,
              1e-6 * w.matrix.total() + 1e-6);
  EXPECT_LE(prepared.broadcast_removed_bytes, w.skew.broadcast_bytes + 1e-9);
  // Residual never negative anywhere.
  for (std::size_t k = 0; k < prepared.residual.partitions(); ++k) {
    for (std::size_t i = 0; i < prepared.residual.nodes(); ++i) {
      EXPECT_GE(prepared.residual.h(k, i), -1e-9);
    }
  }
}

TEST_P(FuzzPipeline, SkewHandlingNeverSlowsCcfDown) {
  const auto spec = random_spec();
  const auto w =
      std::make_shared<const data::Workload>(data::generate_workload(spec));
  const core::QuerySpec with = core::QuerySpec::paper_system("ccf", w);
  core::QuerySpec without = with;
  without.skew_handling = false;
  core::EngineOptions analytic;
  analytic.simulate = false;  // analytic is exact under MADD
  const double cct_with = ccf::testing::run_one(with, analytic).cct_seconds;
  const double cct_without =
      ccf::testing::run_one(without, analytic).cct_seconds;
  // Pinning hot data + broadcasting a tiny build side should never hurt by
  // more than the broadcast mass itself.
  const double broadcast_slack =
      spec.payload_bytes * static_cast<double>(spec.nodes) /
      net::Fabric::kDefaultPortRate;
  EXPECT_LE(cct_with, cct_without + broadcast_slack + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace ccf
