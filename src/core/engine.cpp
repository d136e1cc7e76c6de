#include "core/engine.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
#include "util/parallel.hpp"

namespace ccf::core {

namespace {

/// Reconcile `nodes` with the topology spec before fabric_ is built: a
/// topology session may leave nodes at 0 (derived) but must not contradict
/// the spec's host count.
EngineOptions normalize_options(EngineOptions options) {
  if (!options.topology.empty()) {
    const std::size_t topo_nodes =
        net::TopologySpec::parse(options.topology).node_count();
    if (options.nodes == 0) {
      options.nodes = topo_nodes;
    } else if (options.nodes != topo_nodes) {
      throw std::invalid_argument(
          "Engine: nodes does not match the topology's host count");
    }
  }
  return options;
}

}  // namespace

void validate_sparse_spec(const net::SparseCoflowSpec& spec,
                          std::size_t nodes) {
  if (spec.arrival < 0.0 || !std::isfinite(spec.arrival)) {
    throw std::invalid_argument("sparse spec: invalid arrival time");
  }
  if (spec.deadline < 0.0 || !std::isfinite(spec.deadline)) {
    throw std::invalid_argument("sparse spec: invalid deadline");
  }
  if (spec.weight < 0.0 || !std::isfinite(spec.weight)) {
    throw std::invalid_argument("sparse spec: invalid weight");
  }
  for (const net::Flow& f : spec.flows) {
    if (f.src >= nodes || f.dst >= nodes) {
      throw std::invalid_argument(
          "sparse spec: flow endpoint outside the fabric");
    }
    if (f.src == f.dst) {
      throw std::invalid_argument("sparse spec: intra-rack flow (src == dst)");
    }
    if (f.volume < 0.0 || !std::isfinite(f.volume)) {
      throw std::invalid_argument("sparse spec: invalid flow volume");
    }
    if (f.start < 0.0 || !std::isfinite(f.start)) {
      throw std::invalid_argument("sparse spec: invalid flow start offset");
    }
  }
}

void validate_query_spec(const QuerySpec& spec, std::size_t nodes) {
  if (spec.sparse) {
    validate_sparse_spec(*spec.sparse, nodes);
    return;
  }
  if (!spec.workload) {
    throw std::invalid_argument("query spec: no workload");
  }
  if (spec.workload->matrix.nodes() != nodes) {
    throw std::invalid_argument(
        "query spec: workload does not span the session fabric");
  }
  if (spec.arrival < 0.0 || !std::isfinite(spec.arrival)) {
    throw std::invalid_argument("query spec: invalid arrival time");
  }
  if (spec.weight < 0.0 || !std::isfinite(spec.weight)) {
    throw std::invalid_argument("query spec: invalid weight");
  }
  if (!registry::has_scheduler(spec.scheduler)) {
    throw std::invalid_argument("query spec: unknown scheduler: " +
                                spec.scheduler);
  }
}

bool query_spec_valid(const QuerySpec& spec, std::size_t nodes) noexcept {
  try {
    validate_query_spec(spec, nodes);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

Engine::Engine(EngineOptions options)
    : options_(normalize_options(std::move(options))),
      fabric_(options_.nodes > 0
                  ? net::Fabric(options_.nodes, options_.port_rate)
                  : throw std::invalid_argument("Engine: nodes must be > 0")) {
  if (!registry::has_allocator(options_.allocator)) {
    throw std::invalid_argument("Engine: unknown allocator: " +
                                options_.allocator);
  }
  if (!options_.topology.empty()) {
    net::TopologySpec spec = net::TopologySpec::parse(options_.topology);
    spec.host_rate = options_.port_rate;
    topology_ = net::make_topology(spec);
    routing_ = registry::make_routing(options_.routing);  // throws on unknown
  }
}

QueryId Engine::submit(QuerySpec spec) {
  validate_query_spec(spec, fabric_.nodes());
  if (spec.sparse) {
    RunContext ctx;
    ctx.name = spec.sparse->name;
    ctx.arrival = spec.sparse->arrival;
    ctx.scheduler_name = "sparse";
    ctx.weight = spec.sparse->weight;
    ctx.sparse = std::move(spec.sparse);

    const std::scoped_lock lock(mutex_);
    pending_.push_back(std::move(ctx));
    return next_id_++;
  }
  RunContext ctx;
  ctx.name = std::move(spec.name);
  ctx.arrival = spec.arrival;
  ctx.workload = std::move(spec.workload);
  ctx.scheduler_name = std::move(spec.scheduler);
  ctx.skew_handling = spec.skew_handling;
  ctx.weight = spec.weight;

  const std::scoped_lock lock(mutex_);
  const auto it =
      options_.plan_cache_capacity == 0
          ? plan_cache_.end()
          : plan_cache_.find(PlanKey{ctx.workload.get(), ctx.scheduler_name,
                                     ctx.skew_handling});
  if (it != plan_cache_.end()) {
    // Prepared-statement fast path: share the memoized stage products; the
    // drain skips this context's whole stage graph and registers the coflow
    // from the normalized flow list. Bit-identical to a recomputation
    // (deterministic schedulers, same fabric).
    const PlanEntry& plan = it->second;
    ctx.plan_flows = plan.flow_list;
    ctx.traffic_bytes = plan.traffic_bytes;
    ctx.makespan_bytes = plan.makespan_bytes;
    ctx.gamma_seconds = plan.gamma_seconds;
    ctx.flow_count = plan.flow_count;
    ctx.skew_handled = plan.skew_handled;
    ctx.plan_cached = true;
    ++stats_.plan_hits;
  } else {
    // Resolve the placement policy once, here, not per drain.
    ctx.scheduler = registry::make_scheduler(ctx.scheduler_name);
    ++stats_.plan_misses;
  }
  pending_.push_back(std::move(ctx));
  return next_id_++;
}

QueryId Engine::submit(std::string name, double arrival,
                       net::FlowMatrix flows) {
  if (flows.nodes() != fabric_.nodes()) {
    throw std::invalid_argument(
        "Engine::submit: flow matrix does not span the session fabric");
  }
  if (arrival < 0.0 || !std::isfinite(arrival)) {
    throw std::invalid_argument("Engine::submit: invalid arrival time");
  }
  RunContext ctx;
  ctx.name = std::move(name);
  ctx.arrival = arrival;
  ctx.scheduler_name = "prebuilt";
  ctx.flows = net::Demand::from_matrix(flows);
  ctx.traffic_bytes = ctx.flows->traffic();
  ctx.flow_count = ctx.flows->flow_count();

  const std::scoped_lock lock(mutex_);
  pending_.push_back(std::move(ctx));
  return next_id_++;
}

QueryId Engine::submit(net::SparseCoflowSpec spec) {
  QuerySpec query;
  query.sparse =
      std::make_shared<const net::SparseCoflowSpec>(std::move(spec));
  return submit(std::move(query));
}

std::size_t Engine::pending() const {
  const std::scoped_lock lock(mutex_);
  return pending_.size();
}

EngineStats Engine::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

std::size_t Engine::plan_cache_size() const {
  const std::scoped_lock lock(mutex_);
  return plan_cache_.size();
}

EngineReport Engine::drain() {
  EngineReport report;
  drain_into(report);
  return report;
}

void Engine::drain_into(EngineReport& report) {
  report.queries.clear();
  report.sim = net::SimReport{};
  report.makespan = 0.0;
  report.total_traffic_bytes = 0.0;
  report.schedule_seconds = 0.0;

  // Claim this epoch's batch; submissions racing the drain land in the next
  // one. The stage fan-out and the simulation run outside the lock. The
  // batch buffer is a session member (drain is single-consumer), so the swap
  // also hands pending_ the previous epoch's capacity back — steady-state
  // drains reallocate neither vector.
  drain_batch_.clear();
  {
    const std::scoped_lock lock(mutex_);
    drain_batch_.swap(pending_);
  }
  std::vector<RunContext>& batch = drain_batch_;
  const std::size_t n = batch.size();

  // Stage fan-out: contexts are independent, so prepare/place/flows for the
  // pending queries run concurrently; slot i holds query i's products, so
  // the results are in submission order no matter the interleaving. Plan-
  // cache hits skip the graph entirely (their products were copied at
  // submission).
  util::parallel_for(
      n,
      [&](std::size_t i) {
        RunContext& ctx = batch[i];
        if (ctx.plan_cached) return;
        if (ctx.sparse) {
          // Raw sparse submission: aggregate the flow list (duplicates merge
          // by summing) for metrics and the epoch routing; the spec itself
          // registers verbatim below.
          net::Demand demand(fabric_.nodes());
          demand.accumulate(std::span<const net::Flow>(ctx.sparse->flows));
          ctx.flows = std::move(demand);
          ctx.traffic_bytes = ctx.flows->traffic();
          ctx.flow_count = ctx.flows->flow_count();
        } else if (!ctx.flows) {
          stage_prepare(ctx);
          stage_place(ctx);
          stage_flows(ctx);
        }
        stage_metrics(ctx, fabric_);
      },
      options_.placement_threads);

  // Memoize the freshly computed plans (before stage_coflow consumes the
  // flow matrices). Wholesale eviction when full — see EngineOptions.
  if (options_.plan_cache_capacity > 0) {
    const std::scoped_lock lock(mutex_);
    for (const RunContext& ctx : batch) {
      if (ctx.plan_cached || !ctx.workload || !ctx.flows) continue;
      if (plan_cache_.size() >= options_.plan_cache_capacity) {
        plan_cache_.clear();
      }
      PlanEntry plan{
          ctx.workload,
          std::make_shared<const std::vector<net::Flow>>(
              ctx.flows->to_flows(options_.sim.completion_epsilon)),
          ctx.traffic_bytes,
          ctx.makespan_bytes,
          ctx.gamma_seconds,
          ctx.flow_count,
          ctx.skew_handled};
      plan_cache_.insert_or_assign(
          PlanKey{ctx.workload.get(), ctx.scheduler_name, ctx.skew_handling},
          std::move(plan));
    }
  }

  // Coflow registration + the shared epoch simulation. The simulator is the
  // session's persistent one: reset_epoch() keeps the fabric, the allocator
  // instance and the arena, and the arena reset at this drain boundary means
  // repeated drains recycle the first epoch's scratch blocks instead of
  // reallocating.
  if (options_.simulate && n > 0) {
    // Routed-topology sessions re-route every epoch: aggregate the batch's
    // demand, run the session routing policy over it, and install the
    // resulting RoutedTopology before coflow registration. Safe mid-session
    // because the allocator context rebinds (re-resolving every cached link
    // table) at the start of each run.
    std::shared_ptr<const net::RoutedTopology> routed;
    if (topology_) {
      if (!epoch_demand_) {
        epoch_demand_.emplace(fabric_.nodes());
      } else {
        epoch_demand_->clear();
      }
      for (const RunContext& ctx : batch) {
        if (ctx.plan_flows) {
          epoch_demand_->accumulate(
              std::span<const net::Flow>(*ctx.plan_flows));
        } else if (ctx.flows) {
          epoch_demand_->accumulate(*ctx.flows);
        }
      }
      routed = std::make_shared<const net::RoutedTopology>(
          topology_, routing_->choose(*topology_, *epoch_demand_));
    }
    if (!sim_) {
      net::SimConfig sim_cfg = options_.sim;
      if (!sim_cfg.arena) sim_cfg.arena = &sim_arena_;
      std::unique_ptr<net::RateAllocator> allocator =
          registry::make_allocator(options_.allocator);
      sim_ = routed ? std::make_unique<net::Simulator>(
                          routed, std::move(allocator), sim_cfg)
                    : std::make_unique<net::Simulator>(
                          fabric_, std::move(allocator), sim_cfg);
      if (!options_.faults.empty()) {
        sim_->set_faults(options_.faults, options_.fault_options);
      }
    } else {
      sim_->reset_epoch();
      if (routed) sim_->set_network(std::move(routed));
    }
    if (!options_.sim.arena) sim_arena_.reset();
    for (RunContext& ctx : batch) {
      if (ctx.plan_flows) {
        net::SparseCoflowSpec spec(ctx.name, ctx.arrival, *ctx.plan_flows);
        spec.prenormalized = true;  // memoized to_flows output
        spec.weight = ctx.weight;
        sim_->add_coflow(std::move(spec));
      } else if (ctx.sparse) {
        // Registered verbatim: start offsets, duplicate records and the
        // spec's own prenormalized flag survive (the spec was validated
        // against the simulator's rules at submission).
        sim_->add_coflow(net::SparseCoflowSpec(*ctx.sparse));
      } else {
        sim_->add_coflow(stage_coflow(ctx, options_.sim.completion_epsilon));
      }
    }
    report.sim = sim_->run();
    report.makespan = report.sim.makespan;
  }

  report.queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RunContext& ctx = batch[i];
    RunReport r;
    r.scheduler = ctx.scheduler_name;
    r.skew_handled = ctx.skew_handled;
    r.schedule_seconds = ctx.timings.place_seconds;
    r.traffic_bytes = ctx.traffic_bytes;
    r.flow_count = ctx.flow_count;
    r.makespan_bytes = ctx.makespan_bytes;
    r.gamma_seconds = ctx.gamma_seconds;
    r.cct_seconds = options_.simulate ? report.sim.coflows[i].cct()
                                      : ctx.gamma_seconds;
    report.total_traffic_bytes += r.traffic_bytes;
    report.schedule_seconds += r.schedule_seconds;
    report.queries.push_back(std::move(r));
  }

  const std::scoped_lock lock(mutex_);
  stats_.epochs += 1;
  stats_.queries += n;
  stats_.total_traffic_bytes += report.total_traffic_bytes;
  stats_.schedule_seconds += report.schedule_seconds;
  stats_.sim_events += report.sim.events;
}

}  // namespace ccf::core
