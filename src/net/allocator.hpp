// Rate allocation policies ("coflow schedulers").
//
// Between simulator events, an allocator assigns each active flow a rate
// subject to link capacities (the paper's constraint (1.5): the rates through
// every link of L_ij must fit its capacity). Four policies are provided:
//
//  * FairSharing — per-flow max-min fairness, coflow-agnostic. Models
//    uncoordinated TCP-like sharing; the "worst schedule" of Fig. 2(a).
//  * Madd — FIFO across coflows; within a coflow, MADD (Minimum Allocation
//    for Desired Duration): every flow gets volume/Γ so the whole coflow
//    finishes exactly at its bottleneck bound. For a single coflow this is
//    the provably optimal schedule — the paper applies it to Hash, Mini and
//    CCF alike (§IV-A). Leftover bandwidth backfills later coflows.
//  * Varys — SEBF+MADD (Chowdhury et al., SIGCOMM'14): coflows ordered by
//    smallest effective bottleneck first, MADD within, backfilling.
//  * Aalo — D-CLAS approximation (Chowdhury & Stoica, SIGCOMM'15): coflows
//    prioritized by how many bytes they have already sent (10 MB starting
//    queue, 10x exponent), FIFO within a queue, per-coflow max-min inside.
//
// All policies operate on the generic Network link model, so they work
// unchanged on the flat Fabric and on rack topologies (rack.hpp).
//
// ## The incremental allocation protocol (DESIGN.md §4)
//
// The simulator calls an allocator once per event. To keep that call cheap,
// each run owns one AllocatorContext: a persistent cache of everything that
// does NOT change between events — link capacities, per-pair link sets, the
// schedulable-coflow set, per-coflow sort keys (Γ for SEBF) — plus reusable
// scratch buffers. The engine invalidates cached per-coflow state only for
// coflows actually touched by an arrival, completion or rejection
// (AllocatorContext::touch); allocators additionally invalidate the keys of
// coflows that progressed (sent bytes) in the epoch they schedule.
//
// Contract between engine and allocator, per allocate() call:
//  * The engine calls ctx.begin_epoch() first, which resets the per-epoch
//    outputs (min_dt, rejection_pending, flow grouping).
//  * The allocator writes `rate` for every active flow and SHOULD report
//    ctx.set_min_dt(min over rated flows of remaining/rate) — computed
//    per-flow, so it is bit-identical to a full scan — letting the engine
//    skip its O(#flows) next-event scan. An allocator that does not call
//    set_min_dt still works; the engine falls back to scanning.
//  * An allocator that sets CoflowState::rejected must also set
//    ctx.rejection_pending so the engine runs its (otherwise skipped)
//    rejected-flow sweep.
//  * The engine consumes completion hints; the dirty list is consumed by the
//    allocator (clear_dirty) after it has updated its cached order/keys.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/coflow.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"

namespace ccf::net {

/// SoA view over the active flows of one scheduling epoch. The engine keeps
/// the hot per-flow fields (`remaining`, `rate`) in structure-of-arrays
/// layout; allocators read `remaining` and write `rate`. `link_ptr[i]` /
/// `link_len[i]` expose flow i's cached link set (the paper's L_ij), resolved
/// once per flow at activation — no virtual Network call in any hot loop.
struct ActiveFlows {
  const std::uint32_t* src = nullptr;
  const std::uint32_t* dst = nullptr;
  const std::uint32_t* coflow = nullptr;
  const double* remaining = nullptr;
  double* rate = nullptr;
  const Network::LinkId* const* link_ptr = nullptr;
  const std::uint32_t* link_len = nullptr;
  std::size_t count = 0;

  std::size_t size() const noexcept { return count; }
  bool empty() const noexcept { return count == 0; }
  std::span<const Network::LinkId> links(std::size_t i) const noexcept {
    return {link_ptr[i], link_len[i]};
  }
};

namespace detail {

/// Link-incidence structure of one member set, the integer skeleton the
/// max-min water-fill runs on. It depends only on the membership and its
/// relative order — not on remaining volumes, rates, or residuals — so a
/// policy with stable per-coflow membership (the engine compacts flows
/// stably) can build it once per coflow and reuse it until the coflow is
/// touched. Rebuilding from an unchanged member list reproduces it exactly.
struct GroupStructure {
  std::vector<Network::LinkId> used;  ///< links in use, ascending ids
  std::vector<std::uint32_t> cnt;     ///< member incidences per used slot
  std::vector<double> cnt_d;          ///< cnt mirrored as doubles — the fill's
                                      ///< bottleneck sweep divides by it, and
                                      ///< a contiguous double lane avoids a
                                      ///< per-element int->fp convert in the
                                      ///< vectorized scan
  std::vector<std::uint32_t> off;     ///< per-slot start into `flat`
  std::vector<std::uint32_t> flat;    ///< member ordinals grouped by slot
  bool all_linked = false;            ///< every member crosses >= 1 link
  bool valid = false;                 ///< reflects the current member list
};

}  // namespace detail

/// Persistent per-run allocator state (see the protocol note above). One
/// context is bound to one (network, coflow population) for a whole
/// simulation; rebinding resets every cache, which is how the reference
/// engine forces full recomputation each event.
class AllocatorContext {
 public:
  static constexpr double kInfDt = std::numeric_limits<double>::infinity();

  AllocatorContext() = default;

  /// Bind to a network and coflow population; resets all cached state.
  void bind(const Network& network, std::size_t coflow_count);
  bool bound() const noexcept { return network_ != nullptr; }
  /// Monotone stamp bumped by bind() and reset_caches(); process-unique, so
  /// allocator-private caches keyed on it can tell a rebound or throwaway
  /// context from the persistent per-run one.
  std::uint64_t generation() const noexcept { return generation_; }
  const Network& network() const noexcept { return *network_; }
  std::size_t coflow_count() const noexcept { return coflow_count_; }
  std::size_t link_count() const noexcept { return capacity_.size(); }
  std::span<const double> capacities() const noexcept { return capacity_; }

  /// Cached L_ij for one (src, dst) pair; resolved via the Network on first
  /// request, then stable for the lifetime of the binding. NOT safe for
  /// concurrent first-touch — the engine warms every pair up front.
  std::span<const Network::LinkId> links(std::uint32_t src, std::uint32_t dst);

  /// Reset the shared residual buffer to the link capacities and return it.
  std::span<double> reset_residual();

  /// Overwrite the cached link capacities with fault-adjusted values
  /// (faults.hpp). Only capacities change: the link table and the per-flow
  /// link spans stay valid because link *topology* never changes. The caller
  /// must follow up with reset_caches() — cached keys (e.g. SEBF Γ) and
  /// allocator-private state derived from the old capacities are stale.
  void update_capacities(std::span<const double> capacities);

  // --- engine-side epoch control -------------------------------------
  /// Called by the engine before each allocate(): clears per-epoch outputs.
  void begin_epoch();

  /// Drop every cross-event cache (keys, order, schedulable set, dirty list)
  /// while keeping the link table and capacities — the cached per-flow link
  /// spans stay valid. The reference engine calls this before every
  /// allocate() to force full recomputation.
  void reset_caches();

  /// Invalidate cached per-coflow state (arrival / completion / rejection).
  void touch(std::uint32_t coflow);
  /// Coflows touched since the last clear_dirty(), deduplicated.
  std::span<const std::uint32_t> dirty() const noexcept { return dirty_; }
  void clear_dirty();

  // --- allocator-side outputs ----------------------------------------
  /// Report the time to the earliest flow completion under the rates just
  /// assigned (min over flows with rate > 0 of remaining/rate; kInfDt when
  /// no flow got a positive rate).
  void set_min_dt(double dt) noexcept {
    min_dt_ = dt;
    min_dt_valid_ = true;
  }
  bool min_dt_valid() const noexcept { return min_dt_valid_; }
  double min_dt() const noexcept { return min_dt_; }

  /// Flag that this allocate() call rejected at least one coflow.
  bool rejection_pending = false;

  // --- shared helpers -------------------------------------------------
  /// Group the active flows by coflow id (counting sort; stable, so members
  /// keep ascending flow-position order). Cached per epoch: repeated calls
  /// within one allocate() are free. Cost is O(active flows + coflows with
  /// active flows) — only the coflows present in the previous epoch are
  /// cleared, so an epoch's cost never depends on the total coflow
  /// population (essential at 10^5 coflows).
  void group_by_coflow(const ActiveFlows& flows);
  /// Active-flow positions of coflow `c` (valid after group_by_coflow;
  /// empty for a coflow with no active flows).
  std::span<const std::uint32_t> members(std::uint32_t c) const noexcept {
    return {group_flow_.data() + group_start_[c], group_len_[c]};
  }

  /// The maintained set of schedulable coflows (started && !completed).
  /// The first call after bind() does one full O(#coflows) priming sweep;
  /// afterwards the set is updated incrementally from the dirty list — no
  /// per-event sweep. Unordered; allocators sort it by their own keys. Does
  /// not clear the dirty list (allocators may still need it for key
  /// invalidation).
  std::span<const std::uint32_t> schedulable(
      std::span<const CoflowState> coflows);

  // --- allocator-owned per-coflow caches ------------------------------
  // (Sized by bind(); owned by whichever policy the run uses.)
  std::vector<double> key;             ///< cached sort key (e.g. SEBF Γ)
  std::vector<std::uint8_t> key_valid; ///< key[c] is current
  std::vector<double> coflow_dt;       ///< per-coflow finish dt of last epoch
  std::vector<std::uint32_t> order;    ///< cached schedule order
  bool order_valid = false;            ///< order reflects all dirty updates

  // Reusable scratch for detail:: helpers (never shrinks during a run).
  // Helpers use these only for the duration of one call; they maintain the
  // invariants noted in allocator.cpp (scratch_u32b all-npos, scratch_f64
  // all-zero on entry/exit) so sparse stamping needs no per-call clear.
  // scratch_f64b/scratch_f64c carry no invariant: the water-fill uses them
  // as per-round share and live-count lanes with fully overwritten prefixes.
  std::vector<std::uint32_t> scratch_u32a, scratch_u32b, scratch_u32c;
  std::vector<std::uint32_t> scratch_u32f;
  std::vector<double> scratch_f64, scratch_f64b, scratch_f64c;
  detail::GroupStructure scratch_group;  ///< throwaway for plain maxmin_fill

 private:
  const Network* network_ = nullptr;
  std::size_t coflow_count_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<double> capacity_;
  std::vector<double> residual_;
  // (src << 32 | dst) -> L_ij. Node-based map: mapped vectors are stable.
  std::unordered_map<std::uint64_t, std::vector<Network::LinkId>> link_table_;
  std::vector<std::uint32_t> dirty_;
  std::vector<std::uint8_t> dirty_flag_;
  // schedulable-set bookkeeping
  std::vector<std::uint32_t> sched_;
  std::vector<std::uint32_t> sched_pos_;  ///< position in sched_, or npos
  std::uint64_t sched_seen_dirty_ = 0;  ///< dirty entries already applied
  bool sched_primed_ = false;           ///< initial full sweep done
  // per-epoch grouping cache, sparse over the coflows that actually have
  // active flows: group_len_[c] == 0 for every absent coflow, and only the
  // coflows listed in group_present_ (last grouped epoch) are ever reset.
  std::vector<std::uint32_t> group_start_, group_len_, group_flow_;
  std::vector<std::uint32_t> group_cursor_, group_present_;
  bool groups_valid_ = false;
  double min_dt_ = kInfDt;
  bool min_dt_valid_ = false;
};

/// Strategy interface: write `rate` into every active flow.
class RateAllocator {
 public:
  virtual ~RateAllocator() = default;

  virtual std::string name() const = 0;

  /// Assign rates (primary, incremental entry point). `flows` holds only
  /// flows of started, uncompleted coflows with remaining volume; `coflows`
  /// is indexed by ActiveFlows::coflow. `now` is the current simulation time
  /// (deadline-aware policies need it). Policies with admission control may
  /// set CoflowState::admitted/rejected (and must set ctx.rejection_pending);
  /// the engine removes a rejected coflow's flows after the call.
  virtual void allocate(AllocatorContext& ctx, const ActiveFlows& flows,
                        std::span<CoflowState> coflows, double now) = 0;

  /// Legacy AoS entry point, kept for direct callers and tests. The default
  /// implementation bridges to the SoA overload through a throwaway context
  /// (i.e. full recomputation) and copies the rates back.
  virtual void allocate(std::span<Flow> active, std::span<CoflowState> coflows,
                        const Network& network, double now);
};

/// Available allocator policies. kVarysDeadline is Varys's second operating
/// mode: earliest-deadline-first with admission control — a coflow whose
/// deadline cannot be met given already-admitted guarantees is rejected at
/// arrival; admitted coflows get the minimum rates that finish them exactly
/// on time, and deadline-free coflows share the leftovers SEBF-style.
enum class AllocatorKind { kFairSharing, kMadd, kVarys, kAalo, kVarysDeadline };

std::unique_ptr<RateAllocator> make_allocator(AllocatorKind kind);
/// By name: "fair", "madd", "varys", "aalo", "varys-edf". Throws on unknown
/// names.
std::unique_ptr<RateAllocator> make_allocator(const std::string& name);

namespace detail {

/// Populate `gs` from the member set (discovery, incidence counts, per-link
/// member lists). The counting pass fans out via util::parallel_for above a
/// size threshold. Leaves the ctx scratch invariants intact.
void build_group_structure(const ActiveFlows& flows,
                           std::span<const std::uint32_t> members,
                           AllocatorContext& ctx, GroupStructure& gs);

/// Variant for groups that span (nearly) every link — the fair-sharing
/// global group. Slots equal link ids (`used` is 0..L-1), which skips the
/// discovery pass and sort entirely; links no member crosses keep cnt == 0
/// and are never picked by the bottleneck scan, so rates and tie-breaking
/// match the discovered-and-sorted structure exactly. Prefer the generic
/// builder for small groups: the water-fill scan is O(#used) per round,
/// and here #used is the full link count.
void build_group_structure_dense(const ActiveFlows& flows,
                                 std::span<const std::uint32_t> members,
                                 AllocatorContext& ctx, GroupStructure& gs);

/// Max-min water-filling of `members` against the residual capacities
/// (consumed in place), using a prebuilt structure. `members` must be the
/// exact member list `gs` was built from. Returns the earliest completion dt
/// among the flows it rated (kInfDt if none got a positive rate).
double maxmin_fill_prepared(const ActiveFlows& flows,
                            std::span<const std::uint32_t> members,
                            const GroupStructure& gs, AllocatorContext& ctx,
                            std::span<double> residual);

/// Bottleneck-scan kernel of maxmin_fill_prepared. kVectorized (default) is
/// the branch-light two-pass sweep over the dense slot arrays (value min,
/// then first-index match — auto-vectorizable); kScalarReference is the
/// original branchy
/// first-strict-min scan. Both select the same link and the same share value
/// bit-for-bit (the vectorized path re-reads the share at the matched index,
/// so even the sign of a zero share agrees); the switch exists so the
/// equivalence tests can pin one against the other per allocator.
enum class FillKernel { kVectorized, kScalarReference };
void set_maxmin_fill_kernel(FillKernel kernel) noexcept;
FillKernel maxmin_fill_kernel() noexcept;

/// Max-min water-filling of the flows at positions `members` against the
/// residual link capacities (consumed in place). Shared by FairSharing (one
/// global group) and Aalo (per-coflow groups). Builds a throwaway structure
/// in ctx scratch and runs maxmin_fill_prepared on it. O(total links of
/// members + used_links^2), not O(links * members): the freeze scan walks
/// per-link member lists instead of every flow.
double maxmin_fill(const ActiveFlows& flows,
                   std::span<const std::uint32_t> members,
                   AllocatorContext& ctx, std::span<double> residual);

/// Sequential MADD: for each coflow id in `order`, allocate MADD rates
/// against the residual capacities, then subtract them (backfilling).
/// Shared by Madd (FIFO order) and Varys (SEBF order). Requires
/// ctx.group_by_coflow(flows) to have been called this epoch. Writes each
/// scheduled coflow's finish dt into ctx.coflow_dt (kInfDt when starved) and
/// returns the minimum over them.
double madd_sequential(const ActiveFlows& flows,
                       std::span<const std::uint32_t> order,
                       AllocatorContext& ctx, std::span<double> residual);

/// Effective bottleneck Γ of one coflow on pristine capacities: max over
/// links of (remaining load on link / capacity). `members` are the coflow's
/// active-flow positions. 0.0 for an empty coflow.
double coflow_gamma(const ActiveFlows& flows,
                    std::span<const std::uint32_t> members,
                    AllocatorContext& ctx);

}  // namespace detail

}  // namespace ccf::net
