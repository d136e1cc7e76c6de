#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/registry.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

struct EndToEndDef {
  const char* name;
  const char* unit;
  double EndToEnd::*field;
};

constexpr EndToEndDef kEndToEnd[] = {
    {"setup_s", "s", &EndToEnd::setup_s},
    {"throughput_qps", "1/s", &EndToEnd::throughput_qps},
    {"latency_p50_ms", "ms", &EndToEnd::latency_p50_ms},
    {"latency_p90_ms", "ms", &EndToEnd::latency_p90_ms},
    {"latency_p99_ms", "ms", &EndToEnd::latency_p99_ms},
    {"wall_s", "s", &EndToEnd::wall_s},
    {"mean_cct_s", "s", &EndToEnd::mean_cct_s},
    {"traffic_gb", "GB", &EndToEnd::traffic_gb},
    {"peak_rss_mb", "MB", &EndToEnd::peak_rss_mb},
    {"success_rate", "ratio", &EndToEnd::success_rate},
};

struct LayerDef {
  const char* name;
  const char* unit;
  double Layers::*field;
};

constexpr LayerDef kLayers[] = {
    {"util.fanout_us", "us", &Layers::util_fanout_us},
    {"service.submit_us", "us", &Layers::service_submit_us},
    {"service.overhead_ms", "ms", &Layers::service_overhead_ms},
    {"service.batch_mean", "count", &Layers::service_batch_mean},
    {"service.rejected", "count", &Layers::service_rejected},
    {"service.stalled", "count", &Layers::service_stalled},
    {"engine.drain_ms", "ms", &Layers::engine_drain_ms},
    {"engine.plan_hit_ratio", "ratio", &Layers::engine_plan_hit_ratio},
    {"stages.prepare_ms", "ms", &Layers::stages_prepare_ms},
    {"stages.place_ms", "ms", &Layers::stages_place_ms},
    {"stages.flows_ms", "ms", &Layers::stages_flows_ms},
    {"stages.metrics_ms", "ms", &Layers::stages_metrics_ms},
    {"placement.fanout_ms", "ms", &Layers::placement_fanout_ms},
    {"placement.speedup", "x", &Layers::placement_speedup},
    {"routing.choose_ms", "ms", &Layers::routing_choose_ms},
    {"demand.accumulate_ms", "ms", &Layers::demand_accumulate_ms},
    {"routing.gamma_ratio", "ratio", &Layers::routing_gamma_ratio},
    {"sim.add_coflow_ms", "ms", &Layers::sim_add_coflow_ms},
    {"sim.run_ms", "ms", &Layers::sim_run_ms},
    {"sim.events", "count", &Layers::sim_events},
    {"alloc.calls", "count", &Layers::alloc_calls},
    {"alloc.allocate_ms", "ms", &Layers::alloc_allocate_ms},
    {"alloc.share", "ratio", &Layers::alloc_share},
    {"sim.self_ms", "ms", &Layers::sim_self_ms},
    {"data.generate_ms", "ms", &Layers::data_generate_ms},
    {"trace.unattributed_ms", "ms", &Layers::trace_unattributed_ms},
    {"trace.overhead_ratio", "ratio", &Layers::trace_overhead_ratio},
};

// Histogram geometry: bucket i covers [kMinMs * kGrowth^i, kMinMs *
// kGrowth^(i+1)).
constexpr double kMinMs = 1e-3;
constexpr double kMaxMs = 1e5;
constexpr double kGrowth = 1.01;

}  // namespace

void Outcome::fail(std::uint64_t operations, std::string_view what) {
  failed = std::min(attempted, failed + operations);
  correct = false;
  std::cerr << "check failed: " << what << "\n";
}

double Outcome::success_rate() const noexcept {
  if (attempted == 0) return 0.0;
  return static_cast<double>(attempted - failed) /
         static_cast<double>(attempted);
}

std::string result_json(const Outcome& outcome, bool trace) {
  bool finite = true;
  std::string metrics;
  const auto append = [&](const char* name, const char* unit, double value) {
    if (!std::isfinite(value)) {
      std::cerr << "metric " << name << " is not finite\n";
      finite = false;
      value = 0.0;
    }
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit);
    metrics += buffer;
  };
  if (trace) {
    for (const LayerDef& m : kLayers) {
      append(m.name, m.unit, outcome.layers.*m.field);
    }
  } else {
    for (const EndToEndDef& m : kEndToEnd) {
      append(m.name, m.unit, outcome.e2e.*m.field);
    }
  }
  const bool correct = outcome.correct && finite;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(outcome.attempted) +
         ", \"failed\": " + std::to_string(outcome.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double blocked_quantile(const std::vector<double>& samples, std::size_t block,
                        double q) {
  if (samples.size() <= block) return quantile(samples, q);
  std::vector<double> per_block;
  for (std::size_t begin = 0; begin + block <= samples.size(); begin += block) {
    per_block.push_back(quantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                            samples.begin() +
                                static_cast<std::ptrdiff_t>(begin + block)),
        q));
  }
  return median(std::move(per_block));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

LatencyHistogram::LatencyHistogram()
    : counts_(static_cast<std::size_t>(std::log(kMaxMs / kMinMs) /
                                       std::log(kGrowth)) +
                  2,
              0),
      sums_(counts_.size(), 0.0) {}

std::size_t LatencyHistogram::bucket(double ms) const noexcept {
  if (!(ms > kMinMs)) return 0;
  const auto i =
      static_cast<std::size_t>(std::log(ms / kMinMs) / std::log(kGrowth));
  return std::min(i, counts_.size() - 1);
}

void LatencyHistogram::add(double ms) noexcept {
  const std::size_t i = bucket(ms);
  ++counts_[i];
  sums_[i] += ms;
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
    sums_[i] += other.sums_[i];
  }
  total_ += other.total_;
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return sums_[i] / static_cast<double>(counts_[i]);
  }
  return 0.0;
}

double windowed_quantile(const std::vector<LatencyHistogram>& windows,
                         double q, std::uint64_t min_count) {
  std::vector<double> per_window;
  LatencyHistogram all;
  for (const LatencyHistogram& w : windows) {
    if (w.count() >= min_count) per_window.push_back(w.quantile(q));
    all.merge(w);
  }
  return per_window.empty() ? all.quantile(q) : median(std::move(per_window));
}

void TimedAllocator::allocate(ccf::net::AllocatorContext& ctx,
                              const ccf::net::ActiveFlows& flows,
                              std::span<ccf::net::CoflowState> coflows,
                              double now) {
  const auto start = Clock::now();
  inner_->allocate(ctx, flows, coflows, now);
  timing_.seconds += seconds_between(start, Clock::now());
  ++timing_.calls;
}

void TimedAllocator::allocate(std::span<ccf::net::Flow> active,
                              std::span<ccf::net::CoflowState> coflows,
                              const ccf::net::Network& network, double now) {
  const auto start = Clock::now();
  inner_->allocate(active, coflows, network, now);
  timing_.seconds += seconds_between(start, Clock::now());
  ++timing_.calls;
}

double fanout_probe_us(std::size_t items) {
  constexpr int kWarmup = 50;
  constexpr int kSamples = 2000;
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kWarmup + kSamples; ++i) {
    const auto start = Clock::now();
    ccf::util::parallel_for(items, [](std::size_t) {});
    const double us = seconds_between(start, Clock::now()) * 1e6;
    if (i >= kWarmup) samples.push_back(us);
  }
  return median(std::move(samples));
}

ccf::core::RunContext make_context(
    std::string name, std::shared_ptr<const ccf::data::Workload> workload,
    const std::string& scheduler) {
  ccf::core::RunContext ctx;
  ctx.name = std::move(name);
  ctx.workload = std::move(workload);
  ctx.scheduler_name = scheduler;
  ctx.scheduler = ccf::core::registry::make_scheduler(scheduler);
  return ctx;
}

StageTimes run_stages(ccf::core::RunContext& ctx,
                      const ccf::net::Fabric& fabric) {
  StageTimes t;
  auto mark = Clock::now();
  const auto lap = [&mark](double& into) {
    const auto now = Clock::now();
    into = seconds_between(mark, now);
    mark = now;
  };
  ccf::core::stage_prepare(ctx);
  lap(t.prepare_s);
  ccf::core::stage_place(ctx);
  lap(t.place_s);
  ccf::core::stage_flows(ctx);
  lap(t.flows_s);
  ccf::core::stage_metrics(ctx, fabric);
  lap(t.metrics_s);
  return t;
}

}  // namespace perfbench
