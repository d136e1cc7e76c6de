// core::Service — the always-on sharded scheduling service (DESIGN.md §11).
//
// The Engine is a session: callers submit, then drain, on their own cadence.
// The Service productionizes that loop. N Engine shards sit behind a bounded
// lock-free MPMC submission queue each; one driver thread per shard
// accumulates submissions into drain batches and triggers an epoch when the
// batch-size or deadline policy fires. Clients only ever touch submit() — a
// ticket comes back immediately, and the epoch's results arrive on the
// on_epoch callback (driver thread) once the shard drains.
//
//   Service service({.engine = {.nodes = 16, .allocator = "ccf"},
//                    .shards = 2},
//                   [](const ShardEpoch& e) { /* results */ });
//   auto r = service.submit(/*tenant=*/0, QuerySpec("q", workload));
//   service.flush();   // block until everything accepted has drained
//
// Admission control: every submission names a tenant. A tenant carries an
// optional token-bucket rate limit (rate_qps / burst; 0 = unlimited) applied
// at submit() — overload is rejected at the door with kThrottled instead of
// growing an unbounded backlog — and a weight consumed by the per-shard
// smooth weighted-round-robin that forms drain batches, so a heavy tenant
// cannot starve a light one inside a shard no matter the arrival order.
//
// Determinism (pinned by tests/core/service_test.cpp): a batch's composition
// depends on arrival interleaving across threads, but its *results* do not —
// each ShardEpoch records exactly which submissions it drained, in order, and
// replaying those QuerySpecs through a fresh serial Engine reproduces the
// epoch's RunReports bit-for-bit. The Service adds routing and batching, not
// new numerics.
//
// Cross-epoch reuse is inherited from the Engine (persistent simulator +
// allocator + arena, plan cache): steady-state epochs on a shard allocate
// nothing and skip placement entirely for prepared workloads, which is where
// the service's throughput (see bench/bench_service_load.cpp) comes from.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "util/mpmc.hpp"

namespace ccf::core {

/// One admission-controlled client of the service.
struct TenantSpec {
  static constexpr std::size_t kAutoShard = static_cast<std::size_t>(-1);

  std::string name = "tenant";
  /// Smooth-WRR share inside the tenant's shard (relative to its peers).
  double weight = 1.0;
  /// Token-bucket refill rate in queries/second; 0 disables rate limiting.
  double rate_qps = 0.0;
  /// Token-bucket depth (burst tolerance). Ignored when rate_qps == 0.
  double burst = 64.0;
  /// Pinned shard, or kAutoShard to assign round-robin by tenant index.
  std::size_t shard = kAutoShard;
};

struct ServiceOptions {
  /// Per-shard Engine configuration (every shard gets an identical copy, so
  /// the tenant -> shard map alone decides which fabric a query lands on).
  EngineOptions engine;
  std::size_t shards = 1;
  /// Drain policy: an epoch fires when max_batch submissions are staged, or
  /// when the oldest staged submission has waited max_wait, whichever comes
  /// first. Small batches bound both latency and the superlinear per-epoch
  /// simulation cost (the event count grows with coflows in flight).
  std::size_t max_batch = 2;
  std::chrono::microseconds max_wait{200};
  /// Per-shard submission ring capacity (rounded up to a power of two).
  /// submit() returns kQueueFull instead of blocking when a ring is full.
  std::size_t queue_capacity = 4096;
  /// The service's tenants. Empty = one unlimited tenant "default".
  std::vector<TenantSpec> tenants;
};

enum class SubmitStatus : std::uint8_t {
  kAccepted = 0,
  kThrottled,      ///< tenant token bucket empty
  kQueueFull,      ///< shard submission ring full (backpressure)
  kInvalid,        ///< spec failed validation (see Engine::submit's rules)
  kUnknownTenant,  ///< tenant index out of range
  kStopped,        ///< service already stopped
};

struct SubmitResult {
  SubmitStatus status = SubmitStatus::kInvalid;
  std::uint64_t ticket = 0;  ///< valid iff status == kAccepted
  bool accepted() const noexcept { return status == SubmitStatus::kAccepted; }
};

/// One drained submission inside a ShardEpoch. `spec` is the submission
/// verbatim (the workload shared_ptr included), so an epoch record is
/// sufficient to replay the batch through a fresh Engine.
struct ServiceQuery {
  std::uint64_t ticket = 0;
  std::size_t tenant = 0;
  QuerySpec spec;
  std::chrono::steady_clock::time_point submitted;
};

/// One drain epoch of one shard, delivered to the on_epoch callback on that
/// shard's driver thread. queries[i] produced report.queries[i]. Callbacks
/// for different shards run concurrently; the handler must tolerate that.
/// The reference is only valid during the callback.
struct ShardEpoch {
  std::size_t shard = 0;
  std::uint64_t seq = 0;  ///< per-shard epoch counter, from 0
  std::vector<ServiceQuery> queries;
  EngineReport report;
};

/// Monotonic service-wide counters (all submissions ever, any shard).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< submit() calls, any outcome
  std::uint64_t accepted = 0;
  std::uint64_t throttled = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t invalid = 0;
  std::uint64_t completed = 0;  ///< accepted submissions drained
  std::uint64_t epochs = 0;
};

class Service {
 public:
  using EpochCallback = std::function<void(const ShardEpoch&)>;

  /// Validates the options (shards > 0, tenant shard pins in range, Engine
  /// options via Engine's own constructor; throws std::invalid_argument),
  /// builds the shards and starts one driver thread per shard.
  explicit Service(ServiceOptions options, EpochCallback on_epoch = {});

  /// Stops the drivers (without draining the backlog — call flush() first
  /// for a graceful shutdown) and joins them.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Non-blocking submission: validate (core::query_spec_valid), charge the
  /// tenant's token bucket, push onto the tenant's shard ring, wake the
  /// driver. Thread-safe from any number of client threads. On anything but
  /// kAccepted the service state is untouched except the corresponding
  /// rejection counter.
  SubmitResult submit(std::size_t tenant, QuerySpec spec);

  /// Sparse submission: the n²-free ingestion path (see QuerySpec::sparse).
  /// The spec is validated against the shard fabric at the door
  /// (core::query_spec_valid) and carried verbatim into the ShardEpoch
  /// record, so sparse epochs replay through a fresh Engine exactly like
  /// workload epochs. This is what lets a 10k-rack epoch run behind the
  /// service: nothing on the path allocates O(nodes²).
  SubmitResult submit(std::size_t tenant, net::SparseCoflowSpec spec);

  /// Block until every submission accepted so far has been drained and its
  /// epoch callback has returned. Concurrent submitters extend the wait.
  void flush();

  /// Stop accepting (submit -> kStopped), stop the drivers after their
  /// current epoch, join. Idempotent; the destructor calls it.
  void stop();

  ServiceStats stats() const;

  std::size_t shards() const noexcept { return shards_.size(); }
  std::size_t tenants() const noexcept { return tenants_.size(); }
  /// Which shard the tenant's submissions land on (fixed at construction).
  std::size_t tenant_shard(std::size_t tenant) const;
  /// The shard's Engine, for post-hoc inspection (Engine::stats() is
  /// internally locked, so this is safe while the service runs).
  const Engine& shard_engine(std::size_t shard) const;

 private:
  struct Submission {
    std::uint64_t ticket = 0;
    std::uint32_t tenant = 0;
    QuerySpec spec;
    std::chrono::steady_clock::time_point submitted;
  };

  struct TenantState {
    TenantSpec spec;
    std::size_t shard = 0;
    /// Token bucket (guarded by `mutex`; uncontended unless one tenant is
    /// shared by many client threads). Unused when spec.rate_qps == 0.
    std::mutex mutex;
    double tokens = 0.0;
    std::chrono::steady_clock::time_point refilled;
  };

  struct Shard {
    explicit Shard(std::size_t queue_capacity, EngineOptions engine_options)
        : queue(queue_capacity), engine(std::move(engine_options)) {}

    util::MpmcQueue<Submission> queue;
    Engine engine;
    /// Driver wake-up: producers take and release the mutex after a push,
    /// then notify, so a driver between its empty-ring check and its wait
    /// cannot miss the push. The driver waits here when both the ring and
    /// its staging are empty.
    std::mutex wake_mutex;
    std::condition_variable wake_cv;

    // --- driver-thread-private state (no locking) ------------------------
    /// Per-tenant FIFO staging between the ring and the drain batch, indexed
    /// by tenant id (only this shard's tenants ever have entries).
    std::vector<std::deque<Submission>> staged;
    std::vector<double> wrr_credit;  ///< smooth-WRR accumulators, per tenant
    std::size_t staged_count = 0;
    std::uint64_t seq = 0;
    ShardEpoch epoch;        ///< reused across epochs (buffer reuse)
    std::vector<Submission> incoming;  ///< pop_batch scratch
    std::thread driver;
  };

  void pump(Shard& shard);
  bool admit(TenantState& tenant);
  /// Move up to max_batch staged submissions into shard.epoch.queries by
  /// smooth WRR over the tenants with staged work.
  void form_batch(Shard& shard);

  ServiceOptions options_;
  EpochCallback on_epoch_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<bool> stopped_{false};

  /// flush() rendezvous: counts are monotone, so the predicate
  /// completed == accepted means "momentarily idle".
  mutable std::mutex flush_mutex;
  std::condition_variable flush_cv;

  // Stats counters (atomics: bumped on hot paths from many threads).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> throttled_{0};
  std::atomic<std::uint64_t> queue_full_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> epochs_{0};
};

}  // namespace ccf::core
