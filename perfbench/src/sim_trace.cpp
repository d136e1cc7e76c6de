// sim_trace: net::Simulator alone — incremental engine, flat Fabric, Aalo —
// simulating a sparse synthetic FB-like coflow trace as an offline batch.
// Nothing from core, join or routing runs; the event core and Aalo's
// max-min fill dominate. One operation is one whole-trace simulation,
// repeated back to back on the same trace for the measured phase.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "net/allocator.hpp"
#include "net/demand.hpp"
#include "net/fabric.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRacks = 120;
constexpr std::size_t kCoflows = 6000;
/// About half the fabric's capacity: the backlog stays stationary, so run
/// time grows linearly with the trace and each coflow meets ~150 others in
/// flight. (At 1,000/s the queue grows for the whole trace, and run time and
/// mean CCT follow each seed's total load.)
constexpr double kArrivalsPerSecond = 200.0;
constexpr int kSetupReps = 21;
constexpr int kMinReps = 3;
/// Latency quantiles are medians over blocks of this many runs.
constexpr std::size_t kLatencyBlock = 5;

std::vector<ccf::net::SparseCoflowSpec> make_trace(std::uint64_t seed) {
  ccf::net::SyntheticTraceOptions options;
  options.racks = kRacks;
  options.coflows = kCoflows;
  options.duration_seconds = static_cast<double>(kCoflows) / kArrivalsPerSecond;
  // The short, narrow majority of the FB trace only: the few heavy wide
  // coflows make wall time and mean CCT swing by +-40% from seed to seed,
  // more than any bound the benchmark can hold (see README.md).
  options.heavy_fraction = 0.0;
  ccf::util::Pcg32 rng(ccf::util::derive_seed(seed, 83), 83);
  return ccf::net::to_sparse_coflow_specs(
      ccf::net::generate_synthetic_trace(options, rng));
}

/// What every run must reproduce bit for bit.
struct Summary {
  std::size_t coflows = 0;
  std::size_t events = 0;
  double total_bytes = 0.0;
  double average_cct = 0.0;

  static Summary of(const ccf::net::SimReport& r) {
    return {r.coflows.size(), r.events, r.total_bytes, r.average_cct()};
  }
  bool same_as(const Summary& o) const {
    return coflows == o.coflows && events == o.events &&
           same_bits(total_bytes, o.total_bytes) &&
           same_bits(average_cct, o.average_cct);
  }
};

struct Simulation {
  Summary summary;
  double wall_s = 0.0;  ///< construction + registration + run
  double add_s = 0.0;   ///< every add_coflow call
  double run_s = 0.0;   ///< Simulator::run
  AllocatorTiming alloc;
};

/// Simulate the whole trace once. Only a summary of the report is kept
/// (plus the full report when `keep` is set), so the benchmark's own
/// footprint does not grow with the number of runs.
Simulation simulate(const std::vector<ccf::net::SparseCoflowSpec>& trace,
                    bool traced, ccf::net::SimReport* keep) {
  std::vector<ccf::net::SparseCoflowSpec> specs = trace;  // consumed below
  Simulation out;
  const auto start = Clock::now();
  std::unique_ptr<ccf::net::RateAllocator> allocator =
      ccf::net::make_allocator("aalo");
  if (traced) {
    allocator = std::make_unique<TimedAllocator>(std::move(allocator),
                                                 out.alloc);
  }
  ccf::net::Simulator sim(ccf::net::Fabric(kRacks), std::move(allocator));
  const auto add_start = Clock::now();
  for (ccf::net::SparseCoflowSpec& spec : specs) {
    sim.add_coflow(std::move(spec));
  }
  const auto run_start = Clock::now();
  ccf::net::SimReport report = sim.run();
  const auto end = Clock::now();
  out.wall_s = seconds_between(start, end);
  out.add_s = seconds_between(add_start, run_start);
  out.run_s = seconds_between(run_start, end);
  out.summary = Summary::of(report);
  if (keep) *keep = std::move(report);
  return out;
}

/// Simulate back to back until `until`, at least kMinReps times, keeping
/// the first run's report in `first`. With `alternate`, every other run is
/// traced and lands in `traced`.
void simulate_until(const std::vector<ccf::net::SparseCoflowSpec>& trace,
                    Clock::time_point until, bool alternate,
                    std::vector<Simulation>& plain,
                    std::vector<Simulation>& traced,
                    ccf::net::SimReport& first) {
  for (std::size_t k = 0;
       plain.size() < static_cast<std::size_t>(kMinReps) ||
       Clock::now() < until;
       ++k) {
    const bool trace_run = alternate && k % 2 == 1;
    (trace_run ? traced : plain)
        .push_back(simulate(trace, trace_run, k == 0 ? &first : nullptr));
  }
}

/// Output checks, outside the timed phase. The first run must complete
/// every trace coflow in order, move exactly the trace's bytes, and give
/// each coflow a CCT no shorter than its isolated port bound Γ; every run
/// must reproduce the first bit for bit (coflow count, events, traffic,
/// average CCT).
void check(const std::vector<ccf::net::SparseCoflowSpec>& trace,
           const ccf::net::SimReport& first,
           const std::vector<Simulation>& runs, Outcome& outcome) {
  if (first.coflows.size() != trace.size()) {
    outcome.fail(outcome.attempted,
                 "sim_trace: coflow count differs from the trace");
    return;
  }
  const ccf::net::Fabric fabric(kRacks);
  double trace_bytes = 0.0;
  std::size_t below_bound = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ccf::net::CoflowResult& c = first.coflows[i];
    ccf::net::Demand demand(kRacks);
    demand.accumulate(std::span<const ccf::net::Flow>(trace[i].flows));
    trace_bytes += demand.traffic();
    const double gamma = ccf::net::gamma_bound(demand, fabric);
    if (c.rejected || c.name != trace[i].name ||
        c.cct() < gamma * (1.0 - 1e-9)) {
      ++below_bound;
    }
  }
  if (below_bound > 0) {
    outcome.fail(below_bound * runs.size(),
                 "sim_trace: coflows incomplete, reordered or faster than Γ");
  }
  if (std::abs(first.total_bytes - trace_bytes) > 1e-9 * trace_bytes) {
    outcome.fail(outcome.attempted,
                 "sim_trace: moved bytes differ from the trace");
  }
  const Summary expected = Summary::of(first);
  for (const Simulation& run : runs) {
    if (!run.summary.same_as(expected)) {
      outcome.fail(trace.size(), "sim_trace: a repetition is not bit-identical");
    }
  }
}

}  // namespace

Outcome run_sim_trace(const RunArgs& args) {
  Outcome outcome;

  // Set-up: generate the trace and convert it to sparse specs.
  std::vector<double> setup_s;
  std::vector<ccf::net::SparseCoflowSpec> trace;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    trace = make_trace(args.seed);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  const auto deadline = deadline_after(args.seconds);
  std::vector<Simulation> runs;
  std::vector<Simulation> traced;
  ccf::net::SimReport first;
  simulate_until(trace, deadline, args.trace, runs, traced, first);

  std::vector<Simulation> all = runs;
  all.insert(all.end(), traced.begin(), traced.end());
  outcome.attempted = all.size() * trace.size();
  check(trace, first, all, outcome);

  std::vector<double> wall_ms;
  for (const Simulation& r : runs) {
    wall_ms.push_back(r.wall_s * 1e3);
  }

  EndToEnd& e = outcome.e2e;
  e.setup_s = median(setup_s);
  e.latency_p50_ms = blocked_quantile(wall_ms, kLatencyBlock, 0.50);
  e.latency_p90_ms = blocked_quantile(wall_ms, kLatencyBlock, 0.90);
  e.latency_p99_ms = blocked_quantile(wall_ms, kLatencyBlock, 0.99);
  e.wall_s = median(wall_ms) / 1e3;
  e.throughput_qps = static_cast<double>(trace.size()) / e.wall_s;
  e.mean_cct_s = first.average_cct();
  e.traffic_gb = first.total_bytes / 1e9;
  e.peak_rss_mb = peak_rss_mb();
  e.success_rate = outcome.success_rate();

  if (args.trace) {
    std::vector<double> wall, add, run, events, calls, allocate;
    for (const Simulation& r : traced) {
      wall.push_back(r.wall_s * 1e3);
      add.push_back(r.add_s * 1e3);
      run.push_back(r.run_s * 1e3);
      events.push_back(static_cast<double>(r.summary.events));
      calls.push_back(static_cast<double>(r.alloc.calls));
      allocate.push_back(r.alloc.seconds * 1e3);
    }
    Layers& l = outcome.layers;
    l.util_fanout_us = fanout_probe_us(ccf::util::effective_threads());
    l.sim_add_coflow_ms = median(add);
    l.sim_run_ms = median(run);
    l.sim_events = median(events);
    l.alloc_calls = median(calls);
    l.alloc_allocate_ms = median(allocate);
    l.alloc_share = l.alloc_allocate_ms / l.sim_run_ms;
    l.sim_self_ms = l.sim_run_ms - l.alloc_allocate_ms;
    l.data_generate_ms = e.setup_s * 1e3;
    const double traced_wall = median(wall);
    l.trace_unattributed_ms =
        traced_wall - l.sim_add_coflow_ms - l.sim_run_ms;
    l.trace_overhead_ratio = traced_wall / (e.wall_s * 1e3);
  }
  std::cerr << "sim_trace: " << runs.size() << " untraced runs, "
            << traced.size() << " traced runs, " << first.events
            << " events per run\n";
  return outcome;
}

}  // namespace perfbench
