// Routing over a multi-path Topology (topology.hpp) — the RAPIER-flavored
// extension the paper's related work points to ("more advanced techniques on
// coflow scheduling (e.g., routing) will be able to be integrated in our
// framework").
//
// A RoutingPolicy turns a Topology plus an aggregate Demand into a
// RouteChoice, and route_joint is the joint routing×bandwidth co-optimizer —
// it descends on Γ of the routed network, which for a single aggregate
// coflow is exactly the CCT of the MADD fill (metrics.hpp), by repeatedly
// moving the heaviest flows off the bottleneck link and re-evaluating the
// fill. Dense callers wrap their FlowMatrix with Demand::from_matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/demand.hpp"
#include "net/topology.hpp"

namespace ccf::net {

/// Knobs of the joint routing×bandwidth optimizer.
struct JointRouteOptions {
  /// Improvement rounds after the greedy/ECMP warm start.
  std::size_t max_rounds = 8;
  /// Flows re-routed off the bottleneck link per round (heaviest first).
  std::size_t moves_per_round = 16;
  /// A round must lower Γ by more than this relative amount to be kept.
  double min_gain = 1e-9;
};

/// Joint routing×bandwidth co-optimization: start from the better of ECMP
/// and volume-greedy, then iterate — find the link with the worst
/// utilization under the current route choice, move the heaviest flows
/// crossing it onto their least-bottlenecked alternative paths, re-evaluate
/// the fill (Γ of the routed network = the MADD fill's single-coflow CCT),
/// and keep the round only if Γ improved. By construction the result is
/// never worse than static ECMP on the same instance; the routing property
/// suite pins that invariant. Only the aggregate's nonzero pairs are
/// scanned.
RouteChoice route_joint(const Topology& topology, const Demand& demand,
                        const JointRouteOptions& options = {});

/// Γ of an aggregate demand on a topology under a route choice: the max over
/// all links of (bytes routed through the link / link capacity) — the
/// analytic single-coflow CCT of the routed network, and route_joint's
/// objective.
double routed_gamma(const Topology& topology, const Demand& demand,
                    const RouteChoice& choice);

/// A named RouteChoice producer, so route selection composes with every
/// scheduler×allocator pair as a one-flag ablation (core::registry lists the
/// names; Engine/Service and ccf_sim dispatch through it per drain epoch).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual std::string_view name() const noexcept = 0;
  /// Produce the path choice for an aggregate demand ("demand" may be empty
  /// — ECMP ignores it entirely).
  virtual RouteChoice choose(const Topology& topology,
                             const Demand& demand) const = 0;
};

/// Resolve a routing policy by name: "ecmp" (static hash), "greedy"
/// (volume-greedy warm start only), or "joint" (route_joint). Throws
/// std::invalid_argument on unknown names.
std::unique_ptr<RoutingPolicy> make_routing_policy(std::string_view name);

}  // namespace ccf::net
