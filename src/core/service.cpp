#include "core/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ccf::core {

namespace {
using Clock = std::chrono::steady_clock;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
}  // namespace

Service::Service(ServiceOptions options, EpochCallback on_epoch)
    : options_(std::move(options)), on_epoch_(std::move(on_epoch)) {
  if (options_.shards == 0) {
    throw std::invalid_argument("Service: shards must be > 0");
  }
  if (options_.max_batch == 0) {
    throw std::invalid_argument("Service: max_batch must be > 0");
  }
  if (options_.tenants.empty()) {
    TenantSpec fallback;
    fallback.name = "default";
    options_.tenants.push_back(std::move(fallback));
  }

  const Clock::time_point now = Clock::now();
  tenants_.reserve(options_.tenants.size());
  for (std::size_t i = 0; i < options_.tenants.size(); ++i) {
    const TenantSpec& spec = options_.tenants[i];
    if (!(spec.weight > 0.0)) {
      throw std::invalid_argument("Service: tenant \"" + spec.name +
                                  "\" must have weight > 0");
    }
    if (spec.rate_qps < 0.0 || (spec.rate_qps > 0.0 && !(spec.burst >= 1.0))) {
      throw std::invalid_argument("Service: tenant \"" + spec.name +
                                  "\" has an invalid token bucket");
    }
    if (spec.shard != TenantSpec::kAutoShard && spec.shard >= options_.shards) {
      throw std::invalid_argument("Service: tenant \"" + spec.name +
                                  "\" is pinned to a nonexistent shard");
    }
    auto state = std::make_unique<TenantState>();
    state->spec = spec;
    state->shard =
        spec.shard == TenantSpec::kAutoShard ? i % options_.shards : spec.shard;
    state->tokens = spec.burst;  // start full: bursts admit immediately
    state->refilled = now;
    tenants_.push_back(std::move(state));
  }

  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    auto shard =
        std::make_unique<Shard>(options_.queue_capacity, options_.engine);
    shard->staged.resize(tenants_.size());
    shard->wrr_credit.assign(tenants_.size(), 0.0);
    shard->epoch.shard = s;
    shards_.push_back(std::move(shard));
  }
  // Topology sessions may leave engine.nodes at 0 (derived from the spec);
  // pick the resolved width up from the first shard so submit()'s validation
  // checks against the real fabric.
  options_.engine.nodes = shards_.front()->engine.fabric().nodes();
  // Drivers start only after every shard exists (pump touches nothing but
  // its own shard, but the vector must be fully built before any reads).
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->driver = std::thread([this, raw] { pump(*raw); });
  }
}

Service::~Service() { stop(); }

bool Service::admit(TenantState& tenant) {
  if (tenant.spec.rate_qps <= 0.0) return true;
  const Clock::time_point now = Clock::now();
  const std::scoped_lock lock(tenant.mutex);
  tenant.tokens =
      std::min(tenant.spec.burst,
               tenant.tokens +
                   tenant.spec.rate_qps * seconds_between(tenant.refilled, now));
  tenant.refilled = now;
  if (tenant.tokens < 1.0) return false;
  tenant.tokens -= 1.0;
  return true;
}

SubmitResult Service::submit(std::size_t tenant, QuerySpec spec) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (stopped_.load(std::memory_order_acquire)) {
    return {SubmitStatus::kStopped, 0};
  }
  if (tenant >= tenants_.size()) {
    return {SubmitStatus::kUnknownTenant, 0};
  }
  // Validate here, by the same rules Engine::submit enforces, so the driver
  // thread can never throw: a bad spec is an error code at the door, not an
  // exception N microseconds later on another thread.
  if (!query_spec_valid(spec, options_.engine.nodes)) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    return {SubmitStatus::kInvalid, 0};
  }
  TenantState& state = *tenants_[tenant];
  if (!admit(state)) {
    throttled_.fetch_add(1, std::memory_order_relaxed);
    return {SubmitStatus::kThrottled, 0};
  }

  Shard& shard = *shards_[state.shard];
  Submission submission;
  submission.ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  submission.tenant = static_cast<std::uint32_t>(tenant);
  submission.spec = std::move(spec);
  submission.submitted = Clock::now();
  const std::uint64_t ticket = submission.ticket;
  if (!shard.queue.try_push(std::move(submission))) {
    // Refund the admission token: backpressure should not also charge the
    // bucket, or a full ring would starve the tenant twice over.
    if (state.spec.rate_qps > 0.0) {
      const std::scoped_lock lock(state.mutex);
      state.tokens = std::min(state.spec.burst, state.tokens + 1.0);
    }
    queue_full_.fetch_add(1, std::memory_order_relaxed);
    return {SubmitStatus::kQueueFull, 0};
  }
  accepted_.fetch_add(1, std::memory_order_release);
  {
    // Empty critical section: serialize with a driver between its predicate
    // check and its wait, so the notify cannot fall in the gap.
    const std::scoped_lock lock(shard.wake_mutex);
  }
  shard.wake_cv.notify_one();
  return {SubmitStatus::kAccepted, ticket};
}

SubmitResult Service::submit(std::size_t tenant, net::SparseCoflowSpec spec) {
  QuerySpec query;
  query.sparse = std::make_shared<const net::SparseCoflowSpec>(std::move(spec));
  return submit(tenant, std::move(query));
}

void Service::form_batch(Shard& shard) {
  shard.epoch.queries.clear();
  const std::size_t take = std::min(shard.staged_count, options_.max_batch);
  for (std::size_t k = 0; k < take; ++k) {
    // Smooth WRR over the tenants with staged work: every pick tops each
    // active tenant's credit up by its weight and charges the winner the
    // active total, so interleaving converges to the weight ratios while
    // staying perfectly deterministic (ties break toward the lower tenant
    // id). Per-tenant staging is FIFO, so a tenant's own submissions are
    // never reordered.
    double active_weight = 0.0;
    std::size_t best = kNone;
    for (std::size_t t = 0; t < shard.staged.size(); ++t) {
      if (shard.staged[t].empty()) continue;
      const double weight = tenants_[t]->spec.weight;
      shard.wrr_credit[t] += weight;
      active_weight += weight;
      if (best == kNone || shard.wrr_credit[t] > shard.wrr_credit[best]) {
        best = t;
      }
    }
    shard.wrr_credit[best] -= active_weight;

    Submission& picked = shard.staged[best].front();
    ServiceQuery query;
    query.ticket = picked.ticket;
    query.tenant = best;
    query.spec = std::move(picked.spec);
    query.submitted = picked.submitted;
    shard.epoch.queries.push_back(std::move(query));
    shard.staged[best].pop_front();
    --shard.staged_count;
  }
}

void Service::pump(Shard& shard) {
  const auto stage_incoming = [&](Clock::time_point& oldest) {
    for (Submission& s : shard.incoming) {
      if (shard.staged_count == 0) oldest = s.submitted;
      shard.staged[s.tenant].push_back(std::move(s));
      ++shard.staged_count;
    }
    shard.incoming.clear();
  };

  // Staging is bounded to a few drain batches: the fairness window smooth
  // WRR reorders across tenants. Anything beyond it stays in the ring, so
  // the ring capacity — not an unbounded deque — is what bounds queueing
  // delay and pushes kQueueFull back at submitters under overload.
  const std::size_t window = 4 * options_.max_batch;
  Clock::time_point oldest_staged{};
  while (!stopped_.load(std::memory_order_acquire)) {
    if (shard.staged_count < window) {
      shard.queue.pop_batch(shard.incoming, window - shard.staged_count);
      stage_incoming(oldest_staged);
    }

    if (shard.staged_count == 0) {
      std::unique_lock lock(shard.wake_mutex);
      shard.wake_cv.wait_for(lock, options_.max_wait, [&] {
        return shard.queue.size_approx() > 0 ||
               stopped_.load(std::memory_order_acquire);
      });
      continue;
    }

    // Batch accumulation: top up until the batch is full or the oldest
    // staged submission has waited out the deadline.
    const Clock::time_point deadline = oldest_staged + options_.max_wait;
    while (shard.staged_count < options_.max_batch &&
           !stopped_.load(std::memory_order_acquire)) {
      if (shard.queue.pop_batch(shard.incoming,
                                options_.max_batch - shard.staged_count) > 0) {
        stage_incoming(oldest_staged);
        continue;
      }
      const Clock::time_point now = Clock::now();
      if (now >= deadline) break;
      std::unique_lock lock(shard.wake_mutex);
      shard.wake_cv.wait_for(
          lock,
          std::min<Clock::duration>(deadline - now,
                                    std::chrono::microseconds(50)),
          [&] {
            return shard.queue.size_approx() > 0 ||
                   stopped_.load(std::memory_order_acquire);
          });
    }

    form_batch(shard);
    // The epoch record keeps each spec verbatim (workload pointer included);
    // the Engine gets its own copy. That pair is what the replay determinism
    // test drives: re-submitting epoch.queries[i].spec through a fresh
    // serial Engine must reproduce epoch.report bit-for-bit.
    for (const ServiceQuery& query : shard.epoch.queries) {
      shard.engine.submit(query.spec);
    }
    shard.engine.drain_into(shard.epoch.report);
    shard.epoch.seq = shard.seq++;
    epochs_.fetch_add(1, std::memory_order_relaxed);
    if (on_epoch_) on_epoch_(shard.epoch);
    completed_.fetch_add(shard.epoch.queries.size(),
                         std::memory_order_release);
    {
      // Empty critical section: serialize with a flusher between its
      // predicate check and its wait, so the notify cannot fall in the gap.
      const std::scoped_lock lock(flush_mutex);
    }
    flush_cv.notify_all();
  }
}

void Service::flush() {
  std::unique_lock lock(flush_mutex);
  flush_cv.wait(lock, [&] {
    return stopped_.load(std::memory_order_acquire) ||
           completed_.load(std::memory_order_acquire) >=
               accepted_.load(std::memory_order_acquire);
  });
}

void Service::stop() {
  stopped_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      const std::scoped_lock lock(shard->wake_mutex);
    }
    shard->wake_cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->driver.joinable()) shard->driver.join();
  }
  {
    const std::scoped_lock lock(flush_mutex);
  }
  flush_cv.notify_all();
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.throttled = throttled_.load(std::memory_order_relaxed);
  stats.queue_full = queue_full_.load(std::memory_order_relaxed);
  stats.invalid = invalid_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.epochs = epochs_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t Service::tenant_shard(std::size_t tenant) const {
  if (tenant >= tenants_.size()) {
    throw std::out_of_range("Service::tenant_shard: no such tenant");
  }
  return tenants_[tenant]->shard;
}

const Engine& Service::shard_engine(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("Service::shard_engine: no such shard");
  }
  return shards_[shard]->engine;
}

}  // namespace ccf::core
