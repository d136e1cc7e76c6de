// Shared plumbing of the ccf_perfbench workloads: the run arguments, the
// metric record every workload fills, timing and percentile helpers, and the
// probes of the traced run. Every probe times a public call from outside the
// library (an allocator decorator, an empty fan-out, replayed stage calls);
// nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/stages.hpp"
#include "data/workload.hpp"
#include "net/allocator.hpp"
#include "net/fabric.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The time point `seconds` from now.
inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
};

/// End-to-end metrics (--trace 0). Every workload fills every field; the
/// README says which ones each workload was built to measure.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_qps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double wall_s = 0.0;
  double mean_cct_s = 0.0;
  double traffic_gb = 0.0;
  double peak_rss_mb = 0.0;
  double success_rate = 0.0;
};

/// Per-layer metrics (--trace 1). A field stays 0 when its layer is not on
/// the workload's path (e.g. routing on the flat fabric).
struct Layers {
  double util_fanout_us = 0.0;
  double service_submit_us = 0.0;
  double service_overhead_ms = 0.0;
  double service_batch_mean = 0.0;
  double service_rejected = 0.0;
  double service_stalled = 0.0;
  double engine_drain_ms = 0.0;
  double engine_plan_hit_ratio = 0.0;
  double stages_prepare_ms = 0.0;
  double stages_place_ms = 0.0;
  double stages_flows_ms = 0.0;
  double stages_metrics_ms = 0.0;
  double placement_fanout_ms = 0.0;
  double placement_speedup = 0.0;
  double routing_choose_ms = 0.0;
  double demand_accumulate_ms = 0.0;
  double routing_gamma_ratio = 0.0;
  double sim_add_coflow_ms = 0.0;
  double sim_run_ms = 0.0;
  double sim_events = 0.0;
  double alloc_calls = 0.0;
  double alloc_allocate_ms = 0.0;
  double alloc_share = 0.0;
  double sim_self_ms = 0.0;
  double data_generate_ms = 0.0;
  double trace_unattributed_ms = 0.0;
  double trace_overhead_ratio = 0.0;
};

/// What one run reports: the operation counts, the verdict of the output
/// checks, and the metrics of the requested mode.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  EndToEnd e2e;
  Layers layers;

  /// A failed output check: `operations` of the attempted ones count as
  /// failed, and the run is marked incorrect. `what` goes to stderr.
  void fail(std::uint64_t operations, std::string_view what);
  /// (attempted - failed) / attempted.
  double success_rate() const noexcept;
};

Outcome run_service_hot(const RunArgs& args);
Outcome run_engine_cold(const RunArgs& args);
Outcome run_sim_trace(const RunArgs& args);

/// The result line: {"correct", "attempted", "failed", "metrics"} with the
/// end-to-end metrics, or the per-layer ones when `trace` is set.
std::string result_json(const Outcome& outcome, bool trace);

// --- statistics --------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of the samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// Bit-for-bit equality of two doubles (distinguishes -0.0 and NaNs).
bool same_bits(double a, double b) noexcept;

/// Median over consecutive blocks of `block` samples of each block's
/// nearest-rank quantile q (a trailing partial block counts only when it is
/// the sole block). A host stall that covers a minority of the blocks moves
/// the median block, unlike a quantile over the whole run, and leaves the
/// result a measured sample.
double blocked_quantile(const std::vector<double>& samples, std::size_t block,
                        double q);

/// Fixed-footprint latency record for loops that complete too many
/// operations to keep every sample: log-spaced buckets 1% wide from 1 us to
/// 100 s, each holding a count and the sum of its samples. A quantile is the
/// mean of the samples in the bucket that holds its rank, so it is a measured
/// value within 1% of the exact nearest-rank sample. The footprint does not
/// grow with throughput, which keeps peak_rss_mb about the program.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double ms) noexcept;
  void merge(const LatencyHistogram& other) noexcept;
  std::uint64_t count() const noexcept { return total_; }
  double quantile(double q) const noexcept;

 private:
  std::size_t bucket(double ms) const noexcept;

  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::uint64_t total_ = 0;
};

/// Median over time windows of each window's quantile q, counting only
/// windows with at least `min_count` samples; the quantile of all windows
/// merged when none has that many.
double windowed_quantile(const std::vector<LatencyHistogram>& windows,
                         double q, std::uint64_t min_count);

// --- probes of the traced run -------------------------------------------

/// Calls and busy time of one TimedAllocator.
struct AllocatorTiming {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Decorator around the public RateAllocator interface that times every
/// allocate() call. The simulator only talks to the interface, so wrapping
/// an allocator changes no result.
class TimedAllocator final : public ccf::net::RateAllocator {
 public:
  TimedAllocator(std::unique_ptr<ccf::net::RateAllocator> inner,
                 AllocatorTiming& timing)
      : inner_(std::move(inner)), timing_(timing) {}

  std::string name() const override { return inner_->name(); }
  void allocate(ccf::net::AllocatorContext& ctx,
                const ccf::net::ActiveFlows& flows,
                std::span<ccf::net::CoflowState> coflows, double now) override;
  void allocate(std::span<ccf::net::Flow> active,
                std::span<ccf::net::CoflowState> coflows,
                const ccf::net::Network& network, double now) override;

 private:
  std::unique_ptr<ccf::net::RateAllocator> inner_;
  AllocatorTiming& timing_;
};

/// p50 wall time in microseconds of an empty util::parallel_for over
/// `items` indices at the default thread count — the fixed cost of one
/// fan-out.
double fanout_probe_us(std::size_t items);

/// Wall time of each public stage call of one query.
struct StageTimes {
  double prepare_s = 0.0;
  double place_s = 0.0;
  double flows_s = 0.0;
  double metrics_s = 0.0;
};

/// A query context as Engine::submit builds it on a plan-cache miss:
/// skew handling on, placement policy resolved through the registry.
ccf::core::RunContext make_context(
    std::string name, std::shared_ptr<const ccf::data::Workload> workload,
    const std::string& scheduler);

/// Run the stage graph of Engine::drain on one context — stage_prepare,
/// stage_place, stage_flows, stage_metrics — timing each call.
StageTimes run_stages(ccf::core::RunContext& ctx,
                      const ccf::net::Fabric& fabric);

}  // namespace perfbench
