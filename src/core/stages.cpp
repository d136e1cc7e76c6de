#include "core/stages.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "join/flows.hpp"
#include "net/metrics.hpp"

namespace ccf::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void stage_prepare(RunContext& ctx) {
  if (!ctx.workload) {
    throw std::logic_error("stage_prepare: context has no workload");
  }
  const auto t0 = Clock::now();
  ctx.prepared = apply_partial_duplication(*ctx.workload, ctx.skew_handling);
  ctx.skew_handled = ctx.prepared->skew_handled;
  ctx.timings.prepare_seconds = seconds_since(t0);
}

void stage_place(RunContext& ctx) {
  if (!ctx.scheduler) {
    throw std::logic_error("stage_place: context has no scheduler");
  }
  if (!ctx.prepared) {
    throw std::logic_error("stage_place: stage_prepare has not run");
  }
  const opt::AssignmentProblem problem = ctx.prepared->problem();
  const auto t0 = Clock::now();
  ctx.destinations = ctx.scheduler->schedule(problem);
  ctx.timings.place_seconds = seconds_since(t0);
}

void stage_flows(RunContext& ctx) {
  if (!ctx.prepared) {
    throw std::logic_error("stage_flows: stage_prepare has not run");
  }
  const auto t0 = Clock::now();
  // The dense assignment matrix is a stage-local intermediate; only its
  // sparse columnar aggregate leaves the stage. from_matrix visits entries
  // row-major, so traffic/flow-count/to_flows downstream reproduce the dense
  // accumulation order bit-for-bit.
  const net::FlowMatrix matrix = join::assignment_flows(
      ctx.prepared->residual, ctx.destinations, ctx.prepared->initial_flows);
  ctx.flows = net::Demand::from_matrix(matrix);
  ctx.timings.flows_seconds = seconds_since(t0);
  ctx.traffic_bytes = ctx.flows->traffic();
  ctx.flow_count = ctx.flows->flow_count();
}

void stage_metrics(RunContext& ctx, const net::Fabric& fabric) {
  if (!ctx.flows) {
    throw std::logic_error("stage_metrics: context has no flows");
  }
  const net::PortLoads loads = net::port_loads(*ctx.flows);
  ctx.makespan_bytes = loads.bottleneck();
  ctx.gamma_seconds = net::gamma_bound(loads, fabric);
}

net::SparseCoflowSpec stage_coflow(RunContext& ctx,
                                   double completion_epsilon) {
  if (!ctx.flows) {
    throw std::logic_error("stage_coflow: context has no flows");
  }
  net::SparseCoflowSpec spec(ctx.name, ctx.arrival,
                             ctx.flows->to_flows(completion_epsilon));
  spec.weight = ctx.weight;
  spec.prenormalized = true;  // to_flows output is normalized by construction
  ctx.flows.reset();
  return spec;
}

}  // namespace ccf::core
