// service_hot: core::Service on the flat 16-node fabric with MADD — 2
// shards, one tenant each, max_batch 2 — serving a prepared working set of
// 32 star-schema queries. The working set is smaller than the 64-entry plan
// cache, so after the warm-up pass every submission is a plan-cache hit and
// each epoch costs the Service's fixed per-epoch work plus a tiny
// simulation.
//
// Closed loop: one client thread keeps exactly one full batch in flight per
// shard and submits a shard's next batch when its epoch callback has run.
// The drain deadline (50 ms) is far longer than any epoch or the gap between
// a batch's two submissions, so batches fire on size only and batch j of a
// shard always holds working-set slots 2j mod 32 and 2j+1 mod 32: the
// simulated outputs are a pure function of the seed.
//
// Service::submit wakes the shard driver without taking its lock, so a
// wake-up can be lost; the driver then sleeps the whole drain deadline. The
// deadline is therefore also the price of one lost wake-up, and the traced
// run counts the queries that paid it (service.stalled).
#include <algorithm>
#include <array>
#include <condition_variable>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/service.hpp"
#include "data/workload.hpp"
#include "harness.hpp"
#include "net/allocator.hpp"
#include "net/fabric.hpp"
#include "net/simulator.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::size_t kWorkingSet = 32;
constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 2;  ///< ServiceOptions' shipped max_batch
constexpr std::uint64_t kPassEpochs = kWorkingSet / kBatch;  ///< per shard
constexpr auto kDrainDeadline = std::chrono::milliseconds(50);
/// A query this slow waited out (most of) the drain deadline.
constexpr double kStallMs =
    std::chrono::duration<double, std::milli>(kDrainDeadline).count() / 2;
constexpr const char* kScheduler = "ccf";
constexpr const char* kAllocator = "madd";
constexpr int kSetupReps = 11;
/// Throughput and latency quantiles are medians over windows of this
/// length; a latency window needs kMinWindowSamples queries to count.
constexpr auto kWindow = std::chrono::seconds(1);
constexpr std::uint64_t kMinWindowSamples = 1000;
/// ShardEpochs per shard kept for the fresh-Engine replay check, one every
/// kReplayStride epochs of the measured phase.
constexpr std::size_t kReplayKeep = 8;
constexpr std::uint64_t kReplayStride = 512;
/// Epochs per shard sampled in the traced phase, one every kSampleStride.
constexpr std::size_t kSampleKeep = 2048;
constexpr std::uint64_t kSampleStride = 16;
/// Simulator replays of each of the kPassEpochs batch compositions.
constexpr int kSimReps = 20;

using WorkingSet = std::vector<std::shared_ptr<const ccf::data::Workload>>;

/// The star-schema stream of bench_service_load: the first query is the big
/// fact join, the rest shrink.
WorkingSet make_working_set(std::uint64_t seed) {
  WorkingSet set;
  for (std::size_t i = 0; i < kWorkingSet; ++i) {
    ccf::data::WorkloadSpec spec =
        ccf::data::WorkloadSpec::paper_default(kNodes);
    const double shrink = i == 0 ? 1.0 : 0.25 / static_cast<double>(i);
    spec.customer_bytes *= 0.1 * shrink;
    spec.orders_bytes *= 0.1 * shrink;
    spec.seed = ccf::util::derive_seed(seed, i);
    set.push_back(std::make_shared<const ccf::data::Workload>(
        ccf::data::generate_workload(spec)));
  }
  return set;
}

ccf::core::ServiceOptions service_options() {
  ccf::core::ServiceOptions options;
  options.engine.nodes = kNodes;
  options.engine.allocator = kAllocator;
  options.shards = kShards;
  options.max_batch = kBatch;
  options.max_wait = kDrainDeadline;
  for (std::size_t t = 0; t < kShards; ++t) {
    ccf::core::TenantSpec tenant;
    tenant.name = "t";
    tenant.name += std::to_string(t);
    tenant.shard = t;
    options.tenants.push_back(tenant);
  }
  return options;
}

/// Working-set slot of query k of a shard's batch j.
std::size_t slot_of(std::uint64_t batch, std::size_t k) {
  return static_cast<std::size_t>((kBatch * batch + k) % kWorkingSet);
}

/// The per-query outputs that must repeat bit for bit.
struct QueryResult {
  double cct = 0.0;
  double traffic = 0.0;
  double gamma = 0.0;

  static QueryResult of(const ccf::core::RunReport& r) {
    return {r.cct_seconds, r.traffic_bytes, r.gamma_seconds};
  }
  bool same_as(const QueryResult& o) const {
    return same_bits(cct, o.cct) && same_bits(traffic, o.traffic) &&
           same_bits(gamma, o.gamma);
  }
};

/// One epoch sampled in the traced phase.
struct EpochSample {
  std::uint64_t batch = 0;
  std::array<double, kBatch> latency_ms{};
};

/// What one shard's epoch callback records. The shard's driver thread
/// writes it inside the callback; the client reads or resets it only while
/// that shard has no batch in flight (the submit ring and the ready signal
/// order the two).
struct ShardLog {
  std::array<QueryResult, kWorkingSet> canon{};  ///< warm-up pass results
  bool record = false;  ///< measured phase: keep latencies and samples
  bool sample = false;  ///< traced phase: keep EpochSamples
  std::uint64_t bad = 0;  ///< queries with a wrong batch or result
  std::uint64_t stalled = 0;  ///< queries slower than half the deadline
  /// Per query, door to result, one histogram per kWindow of the phase.
  std::vector<LatencyHistogram> windows;
  Clock::time_point phase_start{};
  LatencyHistogram pass;  ///< per pass of the working set
  Clock::time_point pass_end{};
  std::vector<EpochSample> samples;
  std::vector<ccf::core::ShardEpoch> kept;

  void reset_phase(Clock::time_point start, std::size_t window_count) {
    bad = 0;
    stalled = 0;
    phase_start = start;
    windows.assign(window_count, LatencyHistogram());
    pass = LatencyHistogram();
    pass_end = Clock::time_point{};
    samples.clear();
  }
};

/// A Service with its working set, its callback's logs and the signal the
/// callback raises when a shard's epoch is done. Members are destroyed in
/// reverse order, so the Service (and its drivers) go first.
struct Session {
  WorkingSet working_set;
  std::array<ShardLog, kShards> logs;
  std::mutex ready_mutex;
  std::condition_variable ready_cv;
  unsigned ready = 0;  ///< bit s: shard s finished its batch
  std::array<std::uint64_t, kShards> next_batch{};
  ccf::core::Service service;

  explicit Session(WorkingSet set)
      : working_set(std::move(set)),
        service(service_options(),
                [this](const ccf::core::ShardEpoch& e) { on_epoch(e); }) {
    for (ShardLog& log : logs) log.samples.reserve(kSampleKeep);
  }

  void on_epoch(const ccf::core::ShardEpoch& e) {
    const auto now = Clock::now();
    ShardLog& log = logs[e.shard];
    bool composition = e.queries.size() == kBatch &&
                       e.report.queries.size() == kBatch;
    for (std::size_t k = 0; composition && k < kBatch; ++k) {
      composition = e.queries[k].spec.workload ==
                    working_set[slot_of(e.seq, k)];
    }
    if (!composition) {
      log.bad += std::max(e.queries.size(), kBatch);
    } else {
      for (std::size_t k = 0; k < kBatch; ++k) {
        const QueryResult r = QueryResult::of(e.report.queries[k]);
        QueryResult& canon = log.canon[slot_of(e.seq, k)];
        if (e.seq < kPassEpochs) {
          canon = r;
        } else if (!canon.same_as(r)) {
          ++log.bad;
        }
      }
    }
    if (log.record) {
      EpochSample sample{e.seq, {}};
      for (std::size_t k = 0; k < e.queries.size() && k < kBatch; ++k) {
        sample.latency_ms[k] =
            seconds_between(e.queries[k].submitted, now) * 1e3;
        const auto w =
            static_cast<std::size_t>((now - log.phase_start) / kWindow);
        if (w < log.windows.size()) log.windows[w].add(sample.latency_ms[k]);
        if (sample.latency_ms[k] >= kStallMs) ++log.stalled;
      }
      if (e.seq % kPassEpochs == kPassEpochs - 1) {
        if (log.pass_end != Clock::time_point{}) {
          log.pass.add(seconds_between(log.pass_end, now) * 1e3);
        }
        log.pass_end = now;
      }
      if (log.sample && e.seq % kSampleStride == 0 &&
          log.samples.size() < kSampleKeep) {
        log.samples.push_back(sample);
      }
      if ((e.seq - kPassEpochs) % kReplayStride == 0 &&
          log.kept.size() < kReplayKeep) {
        log.kept.push_back(e);
      }
    }
    {
      const std::scoped_lock lock(ready_mutex);
      ready |= 1u << e.shard;
    }
    ready_cv.notify_one();
  }
};

struct Phase {
  std::uint64_t submits = 0;  ///< submit() calls
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  double wall_s = 0.0;
  std::vector<double> window_qps;  ///< completions per second, per kWindow
  std::vector<double> submit_us;   ///< traced phase only

  /// Median windowed throughput; the whole phase's when no window closed.
  double throughput() const {
    return window_qps.empty() ? static_cast<double>(completed) / wall_s
                              : median(window_qps);
  }
};

/// The closed loop: one batch in flight per shard until `until`, or until
/// each shard has run `batches` batches in this phase.
Phase run_phase(Session& s, Clock::time_point until, std::uint64_t batches,
                bool time_submits) {
  Phase phase;
  const auto submit_batch = [&](std::size_t shard) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      const auto& workload =
          s.working_set[slot_of(s.next_batch[shard], k)];
      for (;;) {
        ccf::core::QuerySpec spec("q", workload, kScheduler);
        const auto start = Clock::now();
        const ccf::core::SubmitResult r =
            s.service.submit(shard, std::move(spec));
        if (time_submits) {
          phase.submit_us.push_back(seconds_between(start, Clock::now()) *
                                    1e6);
        }
        ++phase.submits;
        if (r.accepted()) break;
        ++phase.rejected;
        if (r.status != ccf::core::SubmitStatus::kQueueFull) {
          throw std::runtime_error("service_hot: submission refused");
        }
        std::this_thread::yield();
      }
    }
    ++s.next_batch[shard];
  };

  std::array<std::uint64_t, kShards> done{};
  std::array<bool, kShards> in_flight{};
  const auto more = [&](std::size_t shard) {
    return done[shard] < batches && Clock::now() < until;
  };
  const auto start = Clock::now();
  auto window_start = start;
  std::uint64_t window_completed = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    if (more(shard)) {
      submit_batch(shard);
      in_flight[shard] = true;
    }
  }
  while (std::find(in_flight.begin(), in_flight.end(), true) !=
         in_flight.end()) {
    unsigned ready = 0;
    {
      std::unique_lock lock(s.ready_mutex);
      s.ready_cv.wait(lock, [&] { return s.ready != 0; });
      std::swap(ready, s.ready);
    }
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      if ((ready & (1u << shard)) == 0) continue;
      in_flight[shard] = false;
      ++done[shard];
      phase.completed += kBatch;
      window_completed += kBatch;
      if (more(shard)) {
        submit_batch(shard);
        in_flight[shard] = true;
      }
    }
    const auto now = Clock::now();
    if (now - window_start >= kWindow) {
      phase.window_qps.push_back(static_cast<double>(window_completed) /
                                 seconds_between(window_start, now));
      window_start = now;
      window_completed = 0;
    }
  }
  phase.wall_s = seconds_between(start, Clock::now());
  return phase;
}

/// Build a session and run its warm-up pass: every shard drains the whole
/// working set once, filling its plan cache and the canonical results.
std::unique_ptr<Session> set_up(std::uint64_t seed, double& generate_s) {
  const auto start = Clock::now();
  WorkingSet set = make_working_set(seed);
  generate_s = seconds_between(start, Clock::now());
  auto session = std::make_unique<Session>(std::move(set));
  run_phase(*session, Clock::time_point::max(), kPassEpochs, false);
  return session;
}

Phase measure(Session& s, Clock::time_point until, bool traced) {
  const auto start = Clock::now();
  const auto windows = static_cast<std::size_t>((until - start) / kWindow) + 2;
  for (ShardLog& log : s.logs) {
    log.reset_phase(start, windows);
    log.record = true;
    log.sample = traced;
  }
  Phase phase =
      run_phase(s, until, std::numeric_limits<std::uint64_t>::max(), traced);
  for (ShardLog& log : s.logs) log.record = false;
  return phase;
}

/// Both shards' latency windows of the last phase, merged per window.
std::vector<LatencyHistogram> latency_windows(const Session& s) {
  std::vector<LatencyHistogram> merged(s.logs[0].windows.size());
  for (const ShardLog& log : s.logs) {
    for (std::size_t w = 0; w < merged.size(); ++w) {
      merged[w].merge(log.windows[w]);
    }
  }
  return merged;
}

/// Output checks outside the timed phase: both shards agree on every
/// working-set result, and each kept ShardEpoch replays through a fresh
/// serial Engine bit for bit.
void check(const Session& s, Outcome& outcome) {
  for (std::size_t slot = 0; slot < kWorkingSet; ++slot) {
    if (!s.logs[0].canon[slot].same_as(s.logs[1].canon[slot])) {
      outcome.fail(kBatch, "service_hot: shards disagree on a query");
    }
  }
  std::size_t replayed = 0;
  for (const ShardLog& log : s.logs) {
    for (const ccf::core::ShardEpoch& epoch : log.kept) {
      ccf::core::Engine engine(service_options().engine);
      for (const ccf::core::ServiceQuery& q : epoch.queries) {
        engine.submit(q.spec);
      }
      const ccf::core::EngineReport replay = engine.drain();
      bool same = replay.queries.size() == epoch.report.queries.size() &&
                  replay.sim.events == epoch.report.sim.events &&
                  same_bits(replay.makespan, epoch.report.makespan);
      for (std::size_t i = 0; same && i < replay.queries.size(); ++i) {
        const ccf::core::RunReport& a = replay.queries[i];
        const ccf::core::RunReport& b = epoch.report.queries[i];
        same = QueryResult::of(a).same_as(QueryResult::of(b)) &&
               same_bits(a.makespan_bytes, b.makespan_bytes) &&
               a.flow_count == b.flow_count;
      }
      if (!same) {
        outcome.fail(kBatch, "service_hot: ShardEpoch replay differs");
      }
      ++replayed;
    }
  }
  if (replayed == 0) {
    outcome.fail(outcome.attempted, "service_hot: no epoch to replay");
  }
}

/// Traced-run layers measured after the loop, from outside the Service.
void trace_layers(Session& s, const Phase& traced, Outcome& outcome) {
  Layers& l = outcome.layers;

  // Drain time of each sampled epoch, replayed in a persistent serial
  // Engine warmed with the working set (so every replay is a cache hit,
  // as in the Service), and the latency the Service added on top.
  ccf::core::Engine engine(service_options().engine);
  for (std::uint64_t j = 0; j < kPassEpochs; ++j) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      engine.submit(
          ccf::core::QuerySpec("q", s.working_set[slot_of(j, k)], kScheduler));
    }
    engine.drain();
  }
  std::vector<double> drain_ms, overhead_ms;
  ccf::core::EngineReport report;
  for (const ShardLog& log : s.logs) {
    for (const EpochSample& sample : log.samples) {
      for (std::size_t k = 0; k < kBatch; ++k) {
        engine.submit(ccf::core::QuerySpec(
            "q", s.working_set[slot_of(sample.batch, k)], kScheduler));
      }
      const auto start = Clock::now();
      engine.drain_into(report);
      const double ms = seconds_between(start, Clock::now()) * 1e3;
      drain_ms.push_back(ms);
      for (std::size_t k = 0; k < kBatch; ++k) {
        overhead_ms.push_back(sample.latency_ms[k] - ms);
        const QueryResult r = QueryResult::of(report.queries[k]);
        if (!r.same_as(log.canon[slot_of(sample.batch, k)])) {
          outcome.fail(1, "service_hot: Engine replay differs");
        }
      }
    }
  }
  l.engine_drain_ms = median(drain_ms);
  l.service_overhead_ms = median(overhead_ms);

  // The epoch simulations alone, on the normalized coflows the Engine's
  // plan cache holds (rebuilt here through the public stage calls).
  const ccf::net::Fabric fabric(kNodes);
  const double epsilon = ccf::net::SimConfig{}.completion_epsilon;
  std::vector<ccf::net::SparseCoflowSpec> coflows;
  for (std::size_t slot = 0; slot < kWorkingSet; ++slot) {
    ccf::core::RunContext ctx =
        make_context("q", s.working_set[slot], kScheduler);
    run_stages(ctx, fabric);
    coflows.push_back(ccf::core::stage_coflow(ctx, epsilon));
  }
  // One persistent simulator and arena, recycled per epoch with
  // reset_epoch() as the Engine's drain does.
  ccf::util::MonotonicArena arena;
  ccf::net::SimConfig config;
  config.arena = &arena;
  AllocatorTiming timing;
  ccf::net::Simulator sim(
      fabric, std::make_unique<TimedAllocator>(
                  ccf::net::make_allocator(kAllocator), timing),
      config);
  std::vector<double> add, run, events, calls, allocate;
  for (int rep = 0; rep < kSimReps; ++rep) {
    for (std::uint64_t j = 0; j < kPassEpochs; ++j) {
      std::vector<ccf::net::SparseCoflowSpec> batch;
      for (std::size_t k = 0; k < kBatch; ++k) {
        batch.push_back(coflows[slot_of(j, k)]);
      }
      const AllocatorTiming before = timing;
      sim.reset_epoch();
      arena.reset();
      const auto add_start = Clock::now();
      for (ccf::net::SparseCoflowSpec& c : batch) sim.add_coflow(std::move(c));
      const auto run_start = Clock::now();
      const ccf::net::SimReport r = sim.run();
      const auto run_end = Clock::now();
      add.push_back(seconds_between(add_start, run_start) * 1e3);
      run.push_back(seconds_between(run_start, run_end) * 1e3);
      events.push_back(static_cast<double>(r.events));
      calls.push_back(static_cast<double>(timing.calls - before.calls));
      allocate.push_back((timing.seconds - before.seconds) * 1e3);
      for (std::size_t k = 0; k < kBatch; ++k) {
        if (!same_bits(r.coflows[k].cct(),
                       s.logs[0].canon[slot_of(j, k)].cct)) {
          outcome.fail(1, "service_hot: simulator replay differs");
        }
      }
    }
  }
  l.sim_add_coflow_ms = median(add);
  l.sim_run_ms = median(run);
  l.sim_events = median(events);
  l.alloc_calls = median(calls);
  l.alloc_allocate_ms = median(allocate);
  l.alloc_share = l.alloc_allocate_ms / l.sim_run_ms;
  l.sim_self_ms = l.sim_run_ms - l.alloc_allocate_ms;

  l.util_fanout_us = fanout_probe_us(kBatch);
  l.service_submit_us = median(traced.submit_us);
  l.trace_unattributed_ms =
      windowed_quantile(latency_windows(s), 0.5, kMinWindowSamples) -
                            l.service_submit_us / 1e3 - l.engine_drain_ms;
}

}  // namespace

Outcome run_service_hot(const RunArgs& args) {
  Outcome outcome;

  // Set-up: working set, Service construction, warm-up pass.
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<Session> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    const auto start = Clock::now();
    double generate = 0.0;
    session = set_up(args.seed, generate);
    setup_s.push_back(seconds_between(start, Clock::now()));
    generate_s.push_back(generate);
  }
  Session& s = *session;
  const ccf::core::ServiceStats warm = s.service.stats();
  std::array<ccf::core::EngineStats, kShards> warm_engine;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    warm_engine[shard] = s.service.shard_engine(shard).stats();
  }

  const auto deadline = deadline_after(args.seconds);
  const Phase phase = measure(
      s, args.trace ? deadline_after(args.seconds / 2) : deadline, false);
  const std::vector<LatencyHistogram> latency = latency_windows(s);
  LatencyHistogram pass;
  std::uint64_t bad = 0;
  std::uint64_t stalled = 0;
  for (const ShardLog& log : s.logs) {
    pass.merge(log.pass);
    bad += log.bad;
    stalled += log.stalled;
  }
  Phase traced;
  if (args.trace) {
    traced = measure(s, deadline, true);
    for (const ShardLog& log : s.logs) {
      bad += log.bad;
      stalled += log.stalled;
    }
  }

  s.service.flush();
  const ccf::core::ServiceStats stats = s.service.stats();
  outcome.attempted = phase.submits + traced.submits;
  if (phase.rejected + traced.rejected > 0) {
    outcome.fail(phase.rejected + traced.rejected,
                 "service_hot: submissions rejected");
  }
  if (bad > 0) outcome.fail(bad, "service_hot: wrong batch or result");
  if (stats.completed != stats.accepted) {
    outcome.fail(stats.accepted - stats.completed,
                 "service_hot: accepted queries never completed");
  }
  check(s, outcome);

  double cct_sum = 0.0;
  double traffic = 0.0;
  for (const QueryResult& r : s.logs[0].canon) {
    cct_sum += r.cct;
    traffic += r.traffic;
  }

  EndToEnd& e = outcome.e2e;
  e.setup_s = median(setup_s);
  e.throughput_qps = phase.throughput();
  e.latency_p50_ms = windowed_quantile(latency, 0.50, kMinWindowSamples);
  e.latency_p90_ms = windowed_quantile(latency, 0.90, kMinWindowSamples);
  e.latency_p99_ms = windowed_quantile(latency, 0.99, kMinWindowSamples);
  e.wall_s = pass.quantile(0.5) / 1e3;
  e.mean_cct_s = cct_sum / static_cast<double>(kWorkingSet);
  e.traffic_gb = traffic / 1e9;
  e.peak_rss_mb = peak_rss_mb();
  e.success_rate = outcome.success_rate();

  if (args.trace) {
    Layers& l = outcome.layers;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      const ccf::core::EngineStats now = s.service.shard_engine(shard).stats();
      hits += now.plan_hits - warm_engine[shard].plan_hits;
      lookups += now.plan_hits + now.plan_misses -
                 warm_engine[shard].plan_hits - warm_engine[shard].plan_misses;
    }
    l.engine_plan_hit_ratio =
        static_cast<double>(hits) / static_cast<double>(lookups);
    l.service_batch_mean =
        static_cast<double>(stats.completed - warm.completed) /
        static_cast<double>(stats.epochs - warm.epochs);
    l.service_rejected = static_cast<double>(
        stats.throttled + stats.queue_full + stats.invalid -
        warm.throttled - warm.queue_full - warm.invalid);
    l.service_stalled = static_cast<double>(stalled);
    l.data_generate_ms = median(generate_s) * 1e3;
    // Per-query wall of the traced loop over that of the untraced loop.
    l.trace_overhead_ratio = phase.throughput() / traced.throughput();
    s.service.stop();  // quiet the machine for the replays
    trace_layers(s, traced, outcome);
  }
  std::cerr << "service_hot: " << phase.completed << " untraced queries, "
            << traced.completed << " traced queries, " << stats.epochs
            << " epochs, " << stalled << " queries waited out the drain "
            << "deadline\n";
  return outcome;
}

}  // namespace perfbench
