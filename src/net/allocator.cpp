#include "net/allocator.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace ccf::net {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// Process-unique stamp for AllocatorContext::generation(). A fresh stamp on
/// every bind/reset lets allocator-private caches detect throwaway contexts
/// (the legacy AoS bridge makes a new one per call) even when the object
/// lands at a reused address.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

/// Above this many group members, maxmin_fill's setup pass (rate zeroing +
/// per-link incidence counting) runs through util::parallel_for. The
/// water-filling iterations themselves are inherently sequential (each
/// bottleneck choice depends on the previous freeze), so only the
/// embarrassingly parallel setup fans out.
constexpr std::size_t kParallelSetupThreshold = 4096;
constexpr std::size_t kParallelSetupGrain = 2048;

}  // namespace

void AllocatorContext::bind(const Network& network, std::size_t coflow_count) {
  network_ = &network;
  coflow_count_ = coflow_count;
  generation_ = next_generation();
  capacity_.resize(network.link_count());
  for (std::size_t l = 0; l < capacity_.size(); ++l) {
    capacity_[l] = network.link_capacity(static_cast<Network::LinkId>(l));
  }
  residual_.assign(capacity_.size(), 0.0);
  link_table_.clear();
  dirty_.clear();
  dirty_flag_.assign(coflow_count, 0);
  key.assign(coflow_count, 0.0);
  key_valid.assign(coflow_count, 0);
  coflow_dt.assign(coflow_count, kInfDt);
  order.clear();
  order_valid = false;
  sched_.clear();
  sched_pos_.assign(coflow_count, kNoSlot);
  sched_seen_dirty_ = 0;
  sched_primed_ = false;
  group_start_.assign(coflow_count, 0);
  group_len_.assign(coflow_count, 0);
  group_cursor_.resize(coflow_count);
  group_present_.clear();
  groups_valid_ = false;
  min_dt_ = kInfDt;
  min_dt_valid_ = false;
  rejection_pending = false;
}

std::span<const Network::LinkId> AllocatorContext::links(std::uint32_t src,
                                                         std::uint32_t dst) {
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint64_t>(dst);
  auto it = link_table_.find(pair);
  if (it == link_table_.end()) {
    it = link_table_.emplace(pair, std::vector<Network::LinkId>{}).first;
    network_->append_links(src, dst, it->second);
  }
  return it->second;
}

void AllocatorContext::update_capacities(std::span<const double> capacities) {
  if (capacities.size() != capacity_.size()) {
    throw std::invalid_argument(
        "AllocatorContext::update_capacities: size mismatch");
  }
  std::copy(capacities.begin(), capacities.end(), capacity_.begin());
}

std::span<double> AllocatorContext::reset_residual() {
  std::copy(capacity_.begin(), capacity_.end(), residual_.begin());
  return residual_;
}

void AllocatorContext::begin_epoch() {
  groups_valid_ = false;
  min_dt_ = kInfDt;
  min_dt_valid_ = false;
  rejection_pending = false;
}

void AllocatorContext::reset_caches() {
  generation_ = next_generation();
  clear_dirty();
  std::fill(key_valid.begin(), key_valid.end(), 0);
  std::fill(coflow_dt.begin(), coflow_dt.end(), kInfDt);
  order.clear();
  order_valid = false;
  sched_.clear();
  std::fill(sched_pos_.begin(), sched_pos_.end(), kNoSlot);
  sched_primed_ = false;
}

void AllocatorContext::touch(std::uint32_t coflow) {
  if (coflow >= dirty_flag_.size() || dirty_flag_[coflow]) return;
  dirty_flag_[coflow] = 1;
  dirty_.push_back(coflow);
}

void AllocatorContext::clear_dirty() {
  for (const std::uint32_t c : dirty_) dirty_flag_[c] = 0;
  dirty_.clear();
  sched_seen_dirty_ = 0;
}

void AllocatorContext::group_by_coflow(const ActiveFlows& flows) {
  if (groups_valid_) return;
  groups_valid_ = true;
  // Sparse counting sort: clear only the coflows present last epoch, count
  // and scatter only over the active flows. Segment order in group_flow_ is
  // first-touch order (irrelevant to callers); within a segment the members
  // stay in ascending flow-position order, exactly as the dense prefix-sum
  // version produced.
  for (const std::uint32_t c : group_present_) group_len_[c] = 0;
  group_present_.clear();
  for (std::size_t i = 0; i < flows.count; ++i) {
    if (group_len_[flows.coflow[i]]++ == 0) {
      group_present_.push_back(flows.coflow[i]);
    }
  }
  std::uint32_t off = 0;
  for (const std::uint32_t c : group_present_) {
    group_start_[c] = off;
    group_cursor_[c] = off;
    off += group_len_[c];
  }
  group_flow_.resize(flows.count);
  for (std::size_t i = 0; i < flows.count; ++i) {
    group_flow_[group_cursor_[flows.coflow[i]]++] =
        static_cast<std::uint32_t>(i);
  }
}

std::span<const std::uint32_t> AllocatorContext::schedulable(
    std::span<const CoflowState> coflows) {
  if (!sched_primed_) {
    sched_primed_ = true;
    for (std::uint32_t c = 0; c < coflows.size(); ++c) {
      if (coflows[c].started && !coflows[c].completed) {
        sched_pos_[c] = static_cast<std::uint32_t>(sched_.size());
        sched_.push_back(c);
      }
    }
  }
  for (; sched_seen_dirty_ < dirty_.size(); ++sched_seen_dirty_) {
    const std::uint32_t c = dirty_[sched_seen_dirty_];
    const bool want = coflows[c].started && !coflows[c].completed;
    const bool have = sched_pos_[c] != kNoSlot;
    if (want && !have) {
      sched_pos_[c] = static_cast<std::uint32_t>(sched_.size());
      sched_.push_back(c);
    } else if (!want && have) {
      const std::uint32_t last = sched_.back();
      sched_[sched_pos_[c]] = last;
      sched_pos_[last] = sched_pos_[c];
      sched_.pop_back();
      sched_pos_[c] = kNoSlot;
    }
  }
  return sched_;
}

namespace detail {

void build_group_structure(const ActiveFlows& flows,
                           std::span<const std::uint32_t> members,
                           AllocatorContext& ctx, GroupStructure& gs) {
  const std::size_t m_count = members.size();
  auto& link_slot = ctx.scratch_u32b;  // link id -> dense slot (kNoSlot-clean)
  if (link_slot.size() < ctx.link_count()) {
    link_slot.assign(ctx.link_count(), kNoSlot);
  }

  // Discover the links this group uses; ascending ids so bottleneck ties
  // resolve to the smallest link id, matching a full 0..L scan.
  gs.used.clear();
  std::size_t incidences = 0;
  bool all_linked = true;
  for (std::size_t m = 0; m < m_count; ++m) {
    const std::uint32_t p = members[m];
    incidences += flows.link_len[p];
    all_linked = all_linked && flows.link_len[p] != 0;
    for (const auto l : flows.links(p)) {
      if (link_slot[l] == kNoSlot) {
        link_slot[l] = 0;  // provisional; real slots assigned after sorting
        gs.used.push_back(l);
      }
    }
  }
  std::sort(gs.used.begin(), gs.used.end());
  const std::size_t u_count = gs.used.size();
  for (std::size_t u = 0; u < u_count; ++u) {
    link_slot[gs.used[u]] = static_cast<std::uint32_t>(u);
  }

  // Incidence counts. Parallel for big groups (per-chunk counts merged
  // afterwards); sequential otherwise.
  gs.cnt.assign(u_count, 0);
  if (m_count >= kParallelSetupThreshold) {
    const std::size_t chunks =
        util::parallel_chunk_count(m_count, kParallelSetupGrain);
    std::vector<std::uint32_t> chunk_cnt(chunks * u_count, 0);
    util::parallel_for(
        m_count, kParallelSetupGrain, [&](std::size_t b, std::size_t e) {
          std::uint32_t* local =
              chunk_cnt.data() + (b / kParallelSetupGrain) * u_count;
          for (std::size_t m = b; m < e; ++m) {
            for (const auto l : flows.links(members[m])) ++local[link_slot[l]];
          }
        });
    for (std::size_t k = 0; k < chunks; ++k) {
      const std::uint32_t* local = chunk_cnt.data() + k * u_count;
      for (std::size_t u = 0; u < u_count; ++u) gs.cnt[u] += local[u];
    }
  } else {
    for (std::size_t m = 0; m < m_count; ++m) {
      const std::uint32_t p = members[m];
      if (flows.link_len[p] == 2) {  // fabric flows: egress + ingress
        const auto* lp = flows.link_ptr[p];
        ++gs.cnt[link_slot[lp[0]]];
        ++gs.cnt[link_slot[lp[1]]];
      } else {
        for (const auto l : flows.links(p)) ++gs.cnt[link_slot[l]];
      }
    }
  }

  gs.cnt_d.resize(u_count);
  for (std::size_t u = 0; u < u_count; ++u) {
    gs.cnt_d[u] = static_cast<double>(gs.cnt[u]);
  }

  // Per-link member lists (counting-sort scatter preserves member order, so
  // the freeze loop visits flows in the same order a full scan would).
  gs.off.resize(u_count + 1);
  gs.off[0] = 0;
  for (std::size_t u = 0; u < u_count; ++u) gs.off[u + 1] = gs.off[u] + gs.cnt[u];
  gs.flat.resize(incidences);
  // Scatter using off itself as the moving cursor, then shift it back down
  // (post-scatter off[u] == original off[u+1]).
  for (std::size_t m = 0; m < m_count; ++m) {
    const std::uint32_t p = members[m];
    if (flows.link_len[p] == 2) {  // fabric flows: egress + ingress
      const auto* lp = flows.link_ptr[p];
      gs.flat[gs.off[link_slot[lp[0]]]++] = static_cast<std::uint32_t>(m);
      gs.flat[gs.off[link_slot[lp[1]]]++] = static_cast<std::uint32_t>(m);
    } else {
      for (const auto l : flows.links(p)) {
        gs.flat[gs.off[link_slot[l]]++] = static_cast<std::uint32_t>(m);
      }
    }
  }
  for (std::size_t u = u_count; u > 0; --u) gs.off[u] = gs.off[u - 1];
  gs.off[0] = 0;

  // Restore the kNoSlot-clean invariant for the next caller.
  for (const auto l : gs.used) link_slot[l] = kNoSlot;
  gs.all_linked = all_linked;
  gs.valid = true;
}

void build_group_structure_dense(const ActiveFlows& flows,
                                 std::span<const std::uint32_t> members,
                                 AllocatorContext& ctx, GroupStructure& gs) {
  const std::size_t m_count = members.size();
  const std::size_t link_count = ctx.link_count();
  // Identity slot mapping: maxmin_fill_prepared's link_slot ends up mapping
  // l -> l, so the per-incidence indirection stays but never misses, and the
  // discovery pass plus sort disappear. A link with no members keeps
  // cnt == 0; its bottleneck share is inf (or NaN at zero residual), which
  // the strict < never selects, so the freeze sequence — and every rate —
  // is identical to the generic builder's.
  if (gs.used.size() != link_count) {
    gs.used.resize(link_count);
    std::iota(gs.used.begin(), gs.used.end(), 0u);
  }
  gs.cnt.assign(link_count, 0);
  std::size_t incidences = 0;
  bool all_linked = true;
  for (std::size_t m = 0; m < m_count; ++m) {
    const std::uint32_t p = members[m];
    const std::size_t len = flows.link_len[p];
    incidences += len;
    all_linked = all_linked && len != 0;
    if (len == 2) {  // fabric flows: egress + ingress
      const auto* lp = flows.link_ptr[p];
      ++gs.cnt[lp[0]];
      ++gs.cnt[lp[1]];
    } else {
      for (const auto l : flows.links(p)) ++gs.cnt[l];
    }
  }
  gs.cnt_d.resize(link_count);
  for (std::size_t u = 0; u < link_count; ++u) {
    gs.cnt_d[u] = static_cast<double>(gs.cnt[u]);
  }
  gs.off.resize(link_count + 1);
  gs.off[0] = 0;
  for (std::size_t u = 0; u < link_count; ++u) {
    gs.off[u + 1] = gs.off[u] + gs.cnt[u];
  }
  gs.flat.resize(incidences);
  // Same off-as-cursor scatter as the generic builder (order-preserving).
  for (std::size_t m = 0; m < m_count; ++m) {
    const std::uint32_t p = members[m];
    if (flows.link_len[p] == 2) {  // fabric flows: egress + ingress
      const auto* lp = flows.link_ptr[p];
      gs.flat[gs.off[lp[0]]++] = static_cast<std::uint32_t>(m);
      gs.flat[gs.off[lp[1]]++] = static_cast<std::uint32_t>(m);
    } else {
      for (const auto l : flows.links(p)) {
        gs.flat[gs.off[l]++] = static_cast<std::uint32_t>(m);
      }
    }
  }
  for (std::size_t u = link_count; u > 0; --u) gs.off[u] = gs.off[u - 1];
  gs.off[0] = 0;
  gs.all_linked = all_linked;
  gs.valid = true;
}

namespace {

std::atomic<FillKernel> g_fill_kernel{FillKernel::kVectorized};

/// Pass 1 of the vectorized bottleneck scan: share[u] = max(res[u],0)/cnt[u]
/// for every slot, returning the minimum share (NaN shares — zero residual on
/// a memberless dense slot — are skipped, exactly as the strict < of the
/// scalar scan skips them; +inf parks pass through but can never win below
/// kInf). Branch-light and contiguous so the compiler vectorizes it.
double bottleneck_scan(const double* res, const double* cnt, double* share,
                       std::size_t u_count) {
  constexpr double kInf = AllocatorContext::kInfDt;
  double m = kInf;
  for (std::size_t u = 0; u < u_count; ++u) {
    const double s = std::max(res[u], 0.0) / cnt[u];
    share[u] = s;
    m = std::min(m, s);
  }
  return m;
}

}  // namespace

void set_maxmin_fill_kernel(FillKernel kernel) noexcept {
  g_fill_kernel.store(kernel, std::memory_order_relaxed);
}

FillKernel maxmin_fill_kernel() noexcept {
  return g_fill_kernel.load(std::memory_order_relaxed);
}

double maxmin_fill_prepared(const ActiveFlows& flows,
                            std::span<const std::uint32_t> members,
                            const GroupStructure& gs, AllocatorContext& ctx,
                            std::span<double> residual) {
  constexpr double kInf = AllocatorContext::kInfDt;
  const std::size_t m_count = members.size();
  if (m_count == 0) return kInf;
  const std::size_t u_count = gs.used.size();
  const FillKernel kernel = g_fill_kernel.load(std::memory_order_relaxed);

  auto& link_slot = ctx.scratch_u32b;  // link id -> dense slot (kNoSlot-clean)
  auto& frozen = ctx.scratch_u32f;     // per-member frozen flag
  // Densified used-link residuals: the bottleneck scan below reruns every
  // round, and gather-loads through gs.used are what it would wait on. The
  // dense copy sees the exact subtraction sequence the residual span would,
  // so the values written back are bit-identical. A slot whose last flow
  // froze is flushed immediately and parked at +inf, which makes its share
  // inf/0 == +inf — never selected as bottleneck — so the scan needs no
  // cnt test. scratch_f64 is all-zero on entry (madd invariant); the share
  // and live-count lanes (scratch_f64b/c) are plain per-call scratch.
  auto& res = ctx.scratch_f64;
  auto& share = ctx.scratch_f64b;
  auto& cnt = ctx.scratch_f64c;  // live member counts, exact small integers

  if (link_slot.size() < residual.size()) {
    link_slot.assign(residual.size(), kNoSlot);
  }
  cnt.assign(gs.cnt_d.begin(), gs.cnt_d.end());
  if (share.size() < u_count) share.resize(u_count);
  if (res.size() < u_count) res.resize(u_count, 0.0);
  for (std::size_t u = 0; u < u_count; ++u) {
    const auto l = gs.used[u];
    link_slot[l] = static_cast<std::uint32_t>(u);
    res[u] = residual[l];
  }

  // Every member crossing a link is frozen (and thus rated) below; members
  // without links can only be rated by an explicit zero. Skipped in the
  // common all-linked case — the freeze loop overwrites every rate anyway.
  if (!gs.all_linked) {
    for (std::size_t m = 0; m < m_count; ++m) flows.rate[members[m]] = 0.0;
  }

  // Wide fills compact parked positions away, so a position is no longer a
  // slot id: slot_id maps position -> original slot. Narrow fills (the many
  // tiny per-coflow fills of aalo/varys) skip the machinery — the scan is
  // already short and the identity map would cost more than it saves. The
  // scalar reference kernel never compacts.
  const bool compacting =
      kernel != FillKernel::kScalarReference && u_count >= 64;
  auto& slot_id = ctx.scratch_u32c;
  if (compacting) {
    if (slot_id.size() < u_count) slot_id.resize(u_count);
    for (std::size_t u = 0; u < u_count; ++u) {
      slot_id[u] = static_cast<std::uint32_t>(u);
    }
  }

  frozen.assign(m_count, 0);
  std::size_t remaining_flows = m_count;
  std::size_t act = u_count;  // live prefix of the position arrays
  std::size_t parked = 0;     // positions in [0, act) parked at +inf
  double min_dt = kInf;
  while (remaining_flows > 0) {
    if (compacting && parked * 2 >= act) {
      // Over half the scanned positions can never win again (parked at +inf,
      // or memberless dense slots): stable-compact the live positions down so
      // the per-round scan shrinks with the fill. Dropped positions were
      // either flushed at park time or never owned their residual entry, and
      // compaction preserves ascending slot order, so the (value, index)
      // selection sequence — and thus every rate — is unchanged.
      std::size_t w = 0;
      for (std::size_t j = 0; j < act; ++j) {
        if (cnt[j] == 0.0) continue;
        res[w] = res[j];
        cnt[w] = cnt[j];
        slot_id[w] = slot_id[j];
        link_slot[gs.used[slot_id[j]]] = static_cast<std::uint32_t>(w);
        ++w;
      }
      act = w;
      parked = 0;
    }
    // Bottleneck link: smallest fair share among links in use; ties resolve
    // to the smallest position (= smallest link id, compaction is stable).
    double best_share = kInf;
    std::size_t best = u_count;
    if (kernel == FillKernel::kScalarReference) {
      // Original branchy scan: first strict improvement wins.
      for (std::size_t u = 0; u < act; ++u) {
        const double s = std::max(res[u], 0.0) / cnt[u];
        if (s < best_share) {
          best_share = s;
          best = u;
        }
      }
    } else {
      // Two-pass: dense value min, then first index matching it. Taking the
      // share back out of the array at the matched index makes the selected
      // value bit-identical to the scalar kernel's even when the fold saw a
      // differently-signed zero first.
      const double m =
          bottleneck_scan(res.data(), cnt.data(), share.data(), act);
      if (m < kInf) {
        std::size_t u = 0;
        while (share[u] != m) ++u;
        best = compacting ? slot_id[u] : u;
        best_share = share[u];
      }
    }
    if (best == u_count) break;  // all-zero-link group, or defensive
    // Freeze every unfrozen flow crossing the bottleneck link at the share.
    for (std::uint32_t o = gs.off[best]; o < gs.off[best + 1]; ++o) {
      const std::uint32_t m = gs.flat[o];
      if (frozen[m]) continue;
      const std::uint32_t p = members[m];
      flows.rate[p] = best_share;
      frozen[m] = 1;
      --remaining_flows;
      if (best_share > 0.0) {
        min_dt = std::min(min_dt, flows.remaining[p] / best_share);
      }
      const auto settle = [&](const auto l) {
        const std::uint32_t s = link_slot[l];
        res[s] -= best_share;
        if ((cnt[s] -= 1.0) == 0.0) {  // final value: flush and park
          residual[l] = res[s];
          res[s] = kInf;
          ++parked;
        }
      };
      if (flows.link_len[p] == 2) {  // fabric flows: egress + ingress
        const auto* lp = flows.link_ptr[p];
        settle(lp[0]);
        settle(lp[1]);
      } else {
        for (const auto l : flows.links(p)) settle(l);
      }
    }
  }

  // Write back links still carrying unfrozen flows (defensive-break path)
  // and restore the scratch invariants for the next caller. Positions beyond
  // `act` are compacted-away leftovers; only their res lanes need re-zeroing.
  for (std::size_t j = 0; j < act; ++j) {
    if (cnt[j] != 0.0) residual[gs.used[compacting ? slot_id[j] : j]] = res[j];
  }
  for (std::size_t u = 0; u < u_count; ++u) res[u] = 0.0;
  for (const auto l : gs.used) link_slot[l] = kNoSlot;
  return min_dt;
}

double maxmin_fill(const ActiveFlows& flows,
                   std::span<const std::uint32_t> members,
                   AllocatorContext& ctx, std::span<double> residual) {
  if (members.empty()) return AllocatorContext::kInfDt;
  build_group_structure(flows, members, ctx, ctx.scratch_group);
  return maxmin_fill_prepared(flows, members, ctx.scratch_group, ctx, residual);
}

double madd_sequential(const ActiveFlows& flows,
                       std::span<const std::uint32_t> order,
                       AllocatorContext& ctx, std::span<double> residual) {
  constexpr double kInf = AllocatorContext::kInfDt;
  ctx.group_by_coflow(flows);

  auto& touched = ctx.scratch_u32a;  // links loaded by the current coflow
  auto& load = ctx.scratch_f64;      // per-link load (all-zero invariant)
  if (load.size() < residual.size()) load.resize(residual.size(), 0.0);

  double min_dt_all = kInf;
  for (const std::uint32_t cid : order) {
    ctx.coflow_dt[cid] = kInf;
    const auto members = ctx.members(cid);
    if (members.empty()) continue;
    touched.clear();
    for (const std::uint32_t p : members) {
      flows.rate[p] = 0.0;
      const double rem = flows.remaining[p];
      if (flows.link_len[p] == 2) {  // fabric flows: egress + ingress
        const auto* lp = flows.link_ptr[p];
        const auto a = lp[0];
        const auto b = lp[1];
        if (load[a] == 0.0) touched.push_back(a);
        load[a] += rem;
        if (load[b] == 0.0) touched.push_back(b);
        load[b] += rem;
      } else {
        for (const auto l : flows.links(p)) {
          if (load[l] == 0.0) touched.push_back(l);
          load[l] += rem;
        }
      }
    }
    // Γ against *residual* capacities; an exhausted link starves the coflow
    // for this epoch (backfilling semantics).
    double gamma = 0.0;
    for (const auto l : touched) {
      if (load[l] <= 0.0) continue;
      if (residual[l] > 1e-12) {
        gamma = std::max(gamma, load[l] / residual[l]);
      } else {
        gamma = kInf;
        break;
      }
    }
    for (const auto l : touched) load[l] = 0.0;  // restore invariant
    if (gamma <= 0.0 || gamma == kInf) continue;  // nothing to send or starved
    double dt = kInf;
    for (const std::uint32_t p : members) {
      const double rate = flows.remaining[p] / gamma;
      flows.rate[p] = rate;
      dt = std::min(dt, flows.remaining[p] / rate);
      if (flows.link_len[p] == 2) {
        const auto* lp = flows.link_ptr[p];
        const auto a = lp[0];
        const auto b = lp[1];
        // Clamp tiny negative residuals from floating-point accumulation.
        residual[a] = std::max(residual[a] - rate, 0.0);
        residual[b] = std::max(residual[b] - rate, 0.0);
      } else {
        for (const auto l : flows.links(p)) {
          residual[l] -= rate;
          residual[l] = std::max(residual[l], 0.0);
        }
      }
    }
    ctx.coflow_dt[cid] = dt;
    min_dt_all = std::min(min_dt_all, dt);
  }
  return min_dt_all;
}

double coflow_gamma(const ActiveFlows& flows,
                    std::span<const std::uint32_t> members,
                    AllocatorContext& ctx) {
  auto& touched = ctx.scratch_u32a;
  auto& load = ctx.scratch_f64;
  const auto caps = ctx.capacities();
  if (load.size() < caps.size()) load.resize(caps.size(), 0.0);
  touched.clear();
  for (const std::uint32_t p : members) {
    const double rem = flows.remaining[p];
    for (const auto l : flows.links(p)) {
      if (load[l] == 0.0) touched.push_back(l);
      load[l] += rem;
    }
  }
  double g = 0.0;
  for (const auto l : touched) {
    if (load[l] > 0.0) g = std::max(g, load[l] / caps[l]);
    load[l] = 0.0;  // restore invariant
  }
  return g;
}

}  // namespace detail

void RateAllocator::allocate(std::span<Flow> active,
                             std::span<CoflowState> coflows,
                             const Network& network, double now) {
  // Bridge the legacy AoS entry point onto the SoA path with a throwaway
  // context: correct but uncached — the simulator uses the SoA path directly.
  AllocatorContext ctx;
  ctx.bind(network, coflows.size());
  const std::size_t n = active.size();
  std::vector<std::uint32_t> src(n), dst(n), cof(n), link_len(n);
  std::vector<double> remaining(n), rate(n, 0.0);
  std::vector<const Network::LinkId*> link_ptr(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = active[i].src;
    dst[i] = active[i].dst;
    cof[i] = active[i].coflow;
    remaining[i] = active[i].remaining;
    rate[i] = active[i].rate;
    const auto links = ctx.links(active[i].src, active[i].dst);
    link_ptr[i] = links.data();
    link_len[i] = static_cast<std::uint32_t>(links.size());
  }
  ActiveFlows view;
  view.src = src.data();
  view.dst = dst.data();
  view.coflow = cof.data();
  view.remaining = remaining.data();
  view.rate = rate.data();
  view.link_ptr = link_ptr.data();
  view.link_len = link_len.data();
  view.count = n;
  ctx.begin_epoch();
  allocate(ctx, view, coflows, now);
  for (std::size_t i = 0; i < n; ++i) active[i].rate = rate[i];
}

// One factory per policy translation unit.
std::unique_ptr<RateAllocator> make_fair_sharing_allocator();
std::unique_ptr<RateAllocator> make_madd_allocator();
std::unique_ptr<RateAllocator> make_varys_allocator();
std::unique_ptr<RateAllocator> make_aalo_allocator();
std::unique_ptr<RateAllocator> make_varys_deadline_allocator();

std::unique_ptr<RateAllocator> make_allocator(AllocatorKind kind) {
  switch (kind) {
    case AllocatorKind::kFairSharing: return make_fair_sharing_allocator();
    case AllocatorKind::kMadd: return make_madd_allocator();
    case AllocatorKind::kVarys: return make_varys_allocator();
    case AllocatorKind::kAalo: return make_aalo_allocator();
    case AllocatorKind::kVarysDeadline: return make_varys_deadline_allocator();
  }
  throw std::invalid_argument("make_allocator: invalid kind");
}

std::unique_ptr<RateAllocator> make_allocator(const std::string& name) {
  if (name == "fair") return make_allocator(AllocatorKind::kFairSharing);
  if (name == "madd") return make_allocator(AllocatorKind::kMadd);
  if (name == "varys") return make_allocator(AllocatorKind::kVarys);
  if (name == "aalo") return make_allocator(AllocatorKind::kAalo);
  if (name == "varys-edf") {
    return make_allocator(AllocatorKind::kVarysDeadline);
  }
  throw std::invalid_argument("make_allocator: unknown allocator: " + name);
}

}  // namespace ccf::net
