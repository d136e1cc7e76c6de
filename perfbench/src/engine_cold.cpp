// engine_cold: one core::Engine session on an oversubscribed leaf-spine with
// joint routing and the Sincronia ordering allocator. Every epoch submits 32
// uniform-size star-schema queries, each a freshly allocated workload, so
// every submission misses the plan cache and runs real placement (ccf), and
// every drain re-routes the epoch's aggregate demand over the Topology.
// Closed loop: one caller submits an epoch, drains it, and repeats.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "data/workload.hpp"
#include "harness.hpp"
#include "net/demand.hpp"
#include "net/multipath.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr const char* kTopology =
    "leafspine:racks=8,hosts=8,spines=4,oversub=4";
constexpr const char* kRouting = "joint";
constexpr const char* kAllocator = "sincronia";
constexpr const char* kScheduler = "ccf";
constexpr std::size_t kQueries = 32;    ///< per epoch
constexpr std::size_t kPoolEpochs = 2;  ///< distinct epochs, cycled
constexpr int kSetupReps = 7;
/// Latency quantiles are medians over blocks of this many epochs.
constexpr std::size_t kLatencyBlock = 40;
constexpr int kReplayReps = 2;  ///< traced replays of each pool epoch

using Pool = std::vector<std::vector<ccf::data::Workload>>;

std::string query_name(std::size_t i) {
  std::string name = "q";
  name += std::to_string(i);
  return name;
}

/// kPoolEpochs epochs of kQueries uniform-size star-schema joins.
Pool make_pool(std::uint64_t seed, std::size_t nodes) {
  Pool pool(kPoolEpochs);
  for (std::size_t e = 0; e < kPoolEpochs; ++e) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      ccf::data::WorkloadSpec spec =
          ccf::data::WorkloadSpec::paper_default(nodes);
      spec.customer_bytes *= 0.025;
      spec.orders_bytes *= 0.025;
      spec.seed = ccf::util::derive_seed(seed, e * kQueries + i);
      pool[e].push_back(ccf::data::generate_workload(spec));
    }
  }
  return pool;
}

ccf::core::EngineOptions engine_options() {
  ccf::core::EngineOptions options;
  options.topology = kTopology;
  options.routing = kRouting;
  options.allocator = kAllocator;
  return options;
}

/// Fresh allocations of one pool epoch: new identities, so the plan cache
/// (keyed on workload identity) cannot serve any of them.
std::vector<std::shared_ptr<const ccf::data::Workload>> fresh_copies(
    const std::vector<ccf::data::Workload>& epoch) {
  std::vector<std::shared_ptr<const ccf::data::Workload>> out;
  out.reserve(epoch.size());
  for (const ccf::data::Workload& w : epoch) {
    out.push_back(std::make_shared<const ccf::data::Workload>(w));
  }
  return out;
}

/// The simulated outputs of one epoch that must repeat bit for bit.
struct EpochResult {
  std::vector<double> cct, traffic, gamma;
  std::size_t events = 0;

  bool same_as(const EpochResult& o) const {
    const auto same = [](const std::vector<double>& a,
                         const std::vector<double>& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_bits);
    };
    return events == o.events && same(cct, o.cct) &&
           same(traffic, o.traffic) && same(gamma, o.gamma);
  }
};

struct EpochTiming {
  double submit_s = 0.0;  ///< the 32 submit() calls
  double drain_s = 0.0;   ///< drain()
  double wall_s = 0.0;    ///< first submit to drain return
};

struct Loop {
  ccf::core::Engine& engine;
  const Pool& pool;
  std::vector<std::optional<EpochResult>>& reference;
  Outcome& outcome;
  std::size_t next = 0;  ///< epochs run so far

  /// Run whole passes over the pool until `until` (at least one, so every
  /// reference result exists). With `alternate`, every other pass is
  /// traced — submit and drain timed apart — and lands in `traced`.
  void run(Clock::time_point until, bool alternate,
           std::vector<EpochTiming>& plain,
           std::vector<EpochTiming>& traced) {
    do {
      const bool trace = alternate && (next / kPoolEpochs) % 2 == 1;
      for (std::size_t e = 0; e < kPoolEpochs; ++e, ++next) {
        (trace ? traced : plain).push_back(epoch(e, trace));
      }
    } while (Clock::now() < until);
  }

  EpochTiming epoch(std::size_t e, bool trace) {
    const auto queries = fresh_copies(pool[e]);  // untimed
    EpochTiming t;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kQueries; ++i) {
      engine.submit(
          ccf::core::QuerySpec(query_name(i), queries[i], kScheduler));
    }
    const auto submitted = trace ? Clock::now() : start;
    const ccf::core::EngineReport report = engine.drain();
    const auto end = Clock::now();
    t.submit_s = seconds_between(start, submitted);
    t.drain_s = seconds_between(submitted, end);
    t.wall_s = seconds_between(start, end);
    check(e, report);
    return t;
  }

  /// Output checks, between epochs (outside the timed window): every
  /// coflow completes, no query beats its analytic Γ, and a repeated pool
  /// epoch reproduces its first run bit for bit.
  void check(std::size_t e, const ccf::core::EngineReport& report) {
    outcome.attempted += kQueries;
    if (report.queries.size() != kQueries ||
        report.sim.coflows.size() != kQueries) {
      outcome.fail(kQueries, "engine_cold: epoch lost queries");
      return;
    }
    EpochResult r;
    r.events = report.sim.events;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < kQueries; ++i) {
      const ccf::core::RunReport& q = report.queries[i];
      const ccf::net::CoflowResult& c = report.sim.coflows[i];
      if (c.rejected || !std::isfinite(c.completion) ||
          q.cct_seconds < q.gamma_seconds * (1.0 - 1e-9)) {
        ++bad;
      }
      r.cct.push_back(q.cct_seconds);
      r.traffic.push_back(q.traffic_bytes);
      r.gamma.push_back(q.gamma_seconds);
    }
    if (bad > 0) {
      outcome.fail(bad, "engine_cold: coflow incomplete or faster than Γ");
    }
    if (!reference[e]) {
      reference[e] = std::move(r);
    } else if (!reference[e]->same_as(r)) {
      outcome.fail(kQueries, "engine_cold: repeated epoch not bit-identical");
    }
  }
};

/// Per-epoch figures of the traced replay of pool epochs through the
/// public stage, demand, routing and simulator calls.
struct Replay {
  std::vector<double> prepare, place, flows, metrics, fanout;
  std::vector<double> accumulate, choose, gamma_ratio;
  std::vector<double> add, run, events, calls, allocate;
};

/// Replays epochs the way Engine::drain runs them, one call at a time: the
/// session topology, a persistent simulator re-routed and reset per epoch
/// (set_network + reset_epoch + arena reset), and a timed allocator.
class Replayer {
 public:
  Replayer()
      : fabric_(ccf::net::TopologySpec::parse(kTopology).node_count()),
        routing_(ccf::core::registry::make_routing(kRouting)) {
    ccf::net::TopologySpec spec = ccf::net::TopologySpec::parse(kTopology);
    spec.host_rate = ccf::net::Fabric::kDefaultPortRate;
    topology_ = ccf::net::make_topology(spec);
    config_.arena = &arena_;
  }

  void replay(const std::vector<ccf::data::Workload>& epoch,
              const EpochResult& expected, Replay& out, Outcome& outcome) {
    const auto workloads = fresh_copies(epoch);

    // Serial stage graph, one query after the other.
    std::vector<ccf::core::RunContext> batch;
    StageTimes serial;
    for (std::size_t i = 0; i < kQueries; ++i) {
      batch.push_back(make_context(query_name(i), workloads[i], kScheduler));
      const StageTimes t = run_stages(batch.back(), fabric_);
      serial.prepare_s += t.prepare_s;
      serial.place_s += t.place_s;
      serial.flows_s += t.flows_s;
      serial.metrics_s += t.metrics_s;
    }
    out.prepare.push_back(serial.prepare_s * 1e3);
    out.place.push_back(serial.place_s * 1e3);
    out.flows.push_back(serial.flows_s * 1e3);
    out.metrics.push_back(serial.metrics_s * 1e3);

    // The same stage graph as Engine::drain's fan-out.
    std::vector<ccf::core::RunContext> fanned;
    for (std::size_t i = 0; i < kQueries; ++i) {
      fanned.push_back(make_context(query_name(i), workloads[i], kScheduler));
    }
    const auto fan_start = Clock::now();
    ccf::util::parallel_for(
        kQueries, [&](std::size_t i) { run_stages(fanned[i], fabric_); });
    out.fanout.push_back(seconds_between(fan_start, Clock::now()) * 1e3);

    // Epoch routing: aggregate demand, route choice.
    const auto acc_start = Clock::now();
    ccf::net::Demand demand(fabric_.nodes());
    for (const ccf::core::RunContext& ctx : batch) {
      demand.accumulate(*ctx.flows);
    }
    const auto choose_start = Clock::now();
    ccf::net::RouteChoice choice = routing_->choose(*topology_, demand);
    const auto choose_end = Clock::now();
    out.accumulate.push_back(seconds_between(acc_start, choose_start) * 1e3);
    out.choose.push_back(seconds_between(choose_start, choose_end) * 1e3);
    out.gamma_ratio.push_back(
        ccf::net::routed_gamma(*topology_, demand,
                               ccf::net::route_ecmp(*topology_)) /
        ccf::net::routed_gamma(*topology_, demand, choice));

    // The epoch simulation on the routed topology.
    auto routed = std::make_shared<const ccf::net::RoutedTopology>(
        topology_, std::move(choice));
    if (!sim_) {
      sim_ = std::make_unique<ccf::net::Simulator>(
          std::move(routed),
          std::make_unique<TimedAllocator>(
              ccf::core::registry::make_allocator(kAllocator), timing_),
          config_);
    } else {
      sim_->reset_epoch();
      sim_->set_network(std::move(routed));
    }
    arena_.reset();
    const AllocatorTiming before = timing_;
    const auto add_start = Clock::now();
    for (ccf::core::RunContext& ctx : batch) {
      sim_->add_coflow(ccf::core::stage_coflow(ctx, config_.completion_epsilon));
    }
    const auto run_start = Clock::now();
    const ccf::net::SimReport report = sim_->run();
    const auto run_end = Clock::now();
    out.add.push_back(seconds_between(add_start, run_start) * 1e3);
    out.run.push_back(seconds_between(run_start, run_end) * 1e3);
    out.events.push_back(static_cast<double>(report.events));
    out.calls.push_back(static_cast<double>(timing_.calls - before.calls));
    out.allocate.push_back((timing_.seconds - before.seconds) * 1e3);

    bool same = report.coflows.size() == kQueries &&
                report.events == expected.events;
    for (std::size_t i = 0; same && i < kQueries; ++i) {
      same = same_bits(report.coflows[i].cct(), expected.cct[i]);
    }
    if (!same) {
      outcome.fail(kQueries,
                   "engine_cold: stage replay differs from the Engine's epoch");
    }
  }

 private:
  ccf::net::Fabric fabric_;  ///< the flat fabric Γ is measured against
  std::unique_ptr<ccf::net::RoutingPolicy> routing_;
  std::shared_ptr<const ccf::net::Topology> topology_;
  ccf::util::MonotonicArena arena_;
  ccf::net::SimConfig config_;
  AllocatorTiming timing_;
  std::unique_ptr<ccf::net::Simulator> sim_;
};

}  // namespace

Outcome run_engine_cold(const RunArgs& args) {
  Outcome outcome;

  // Set-up: generate the query pool, build the session (topology + routing).
  const std::size_t nodes =
      ccf::net::TopologySpec::parse(kTopology).node_count();
  std::vector<double> setup_s, generate_s;
  Pool pool;
  std::optional<ccf::core::Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    pool.clear();
    const auto start = Clock::now();
    pool = make_pool(args.seed, nodes);
    const auto generated = Clock::now();
    engine.emplace(engine_options());
    setup_s.push_back(seconds_between(start, Clock::now()));
    generate_s.push_back(seconds_between(start, generated));
  }

  std::vector<std::optional<EpochResult>> reference(kPoolEpochs);
  Loop loop{*engine, pool, reference, outcome};
  const auto deadline = deadline_after(args.seconds);
  std::vector<EpochTiming> epochs;
  std::vector<EpochTiming> traced;
  loop.run(deadline, args.trace, epochs, traced);

  std::vector<double> latency_ms, pass_s;
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    latency_ms.push_back(epochs[k].wall_s * 1e3);
    if (k % kPoolEpochs == 0) pass_s.push_back(0.0);
    pass_s.back() += epochs[k].wall_s;
  }

  double cct_sum = 0.0;
  double traffic = 0.0;
  for (const auto& r : reference) {
    for (double c : r->cct) cct_sum += c;
    for (double t : r->traffic) traffic += t;
  }

  EndToEnd& e = outcome.e2e;
  e.setup_s = median(setup_s);
  e.latency_p50_ms = blocked_quantile(latency_ms, kLatencyBlock, 0.50);
  e.latency_p90_ms = blocked_quantile(latency_ms, kLatencyBlock, 0.90);
  e.latency_p99_ms = blocked_quantile(latency_ms, kLatencyBlock, 0.99);
  e.throughput_qps = static_cast<double>(kQueries) / (e.latency_p50_ms / 1e3);
  e.wall_s = median(pass_s);
  e.mean_cct_s = cct_sum / static_cast<double>(kPoolEpochs * kQueries);
  e.traffic_gb = traffic / 1e9;
  e.peak_rss_mb = peak_rss_mb();
  e.success_rate = outcome.success_rate();

  if (args.trace) {
    Replay replay;
    Replayer replayer;
    for (int rep = 0; rep < kReplayReps; ++rep) {
      for (std::size_t p = 0; p < kPoolEpochs; ++p) {
        replayer.replay(pool[p], *reference[p], replay, outcome);
      }
    }
    std::vector<double> wall, submit, drain;
    for (const EpochTiming& t : traced) {
      wall.push_back(t.wall_s * 1e3);
      submit.push_back(t.submit_s * 1e3);
      drain.push_back(t.drain_s * 1e3);
    }
    const ccf::core::EngineStats stats = engine->stats();
    Layers& l = outcome.layers;
    l.util_fanout_us = fanout_probe_us(kQueries);
    l.engine_drain_ms = median(drain);
    l.engine_plan_hit_ratio =
        static_cast<double>(stats.plan_hits) /
        static_cast<double>(stats.plan_hits + stats.plan_misses);
    l.stages_prepare_ms = median(replay.prepare);
    l.stages_place_ms = median(replay.place);
    l.stages_flows_ms = median(replay.flows);
    l.stages_metrics_ms = median(replay.metrics);
    l.placement_fanout_ms = median(replay.fanout);
    l.placement_speedup = (l.stages_prepare_ms + l.stages_place_ms +
                           l.stages_flows_ms + l.stages_metrics_ms) /
                          l.placement_fanout_ms;
    l.routing_choose_ms = median(replay.choose);
    l.demand_accumulate_ms = median(replay.accumulate);
    l.routing_gamma_ratio = median(replay.gamma_ratio);
    l.sim_add_coflow_ms = median(replay.add);
    l.sim_run_ms = median(replay.run);
    l.sim_events = median(replay.events);
    l.alloc_calls = median(replay.calls);
    l.alloc_allocate_ms = median(replay.allocate);
    l.alloc_share = l.alloc_allocate_ms / l.sim_run_ms;
    l.sim_self_ms = l.sim_run_ms - l.alloc_allocate_ms;
    l.data_generate_ms = median(generate_s) * 1e3;
    const double traced_wall = median(wall);
    l.trace_unattributed_ms =
        traced_wall - median(submit) - l.placement_fanout_ms -
        l.demand_accumulate_ms - l.routing_choose_ms - l.sim_add_coflow_ms -
        l.sim_run_ms;
    l.trace_overhead_ratio = traced_wall / median(latency_ms);
  }
  std::cerr << "engine_cold: " << epochs.size() << " untraced epochs, "
            << traced.size() << " traced epochs\n";
  return outcome;
}

}  // namespace perfbench
