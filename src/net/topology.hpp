// General topology layer: the fabric beyond the paper's single non-blocking
// switch, and the one description of every multi-tier fabric in the tree.
//
// A Topology is a directed capacitated link graph over end hosts plus a
// *route-set*: for every ordered (src, dst) host pair it enumerates one or
// more loop-free paths, each a sequence of LinkIds from src's egress port to
// dst's ingress port. Three families are bundled:
//
//  * leaf_spine  — racks of hosts behind ToR switches, S spine switches,
//    configurable uplink oversubscription; one path per spine. At S = 1 it
//    is the two-tier rack fabric of §III-A: a cross-rack flow crosses
//    { egress_i, uplink_out(rack(i)), uplink_in(rack(j)), ingress_j }.
//  * fat_tree    — the k-ary fat-tree of Al-Fares et al.: k pods of k/2 edge
//    and k/2 aggregation switches over (k/2)^2 cores, k^3/4 hosts;
//    (k/2)^2 paths between pods, k/2 inside a pod.
//  * waxman      — seeded BRITE-style irregular topologies (the generator
//    family TopoConfluence drives through ns-3, here native): routers placed
//    in the unit square, edges drawn with the Waxman probability
//    alpha * exp(-d / (beta * L)), connectivity patched deterministically,
//    hosts attached round-robin; the route-set is the k shortest loop-free
//    router paths per pair (Yen's algorithm over BFS hop counts).
//
// Link-id layout (shared with Fabric so fault schedules and the default
// Network::append_egress_links convention keep working): LinkId i in
// [0, n) is host i's egress port, [n, 2n) the ingress ports, switch-level
// links follow from 2n. Paths are stored as *segments* — the switch-level
// links only — grouped by the (src attachment, dst attachment) switch pair,
// so the per-pair table is one u32 and the path store is O(switch pairs),
// not O(host pairs).
//
// A Topology is route-free description; RoutedTopology binds it to a
// RouteChoice (one selected path index per ordered pair) behind the generic
// Network interface, so every allocator, bound, fault schedule and both
// simulator engines work unchanged. Routing policies that *produce* a
// RouteChoice (static ECMP, volume-greedy, and the joint routing×bandwidth
// optimizer) live in multipath.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/demand.hpp"
#include "net/fabric.hpp"
#include "net/network.hpp"

namespace ccf::net {

enum class TopologyKind { kLeafSpine, kFatTree, kIrregular };

/// Knobs of the Waxman generator (BRITE's router-level model).
struct WaxmanOptions {
  std::size_t routers = 8;   ///< router count (>= 1)
  double alpha = 0.4;        ///< edge-probability scale in (0, 1]
  double beta = 0.4;         ///< distance decay in (0, 1]
  /// Trunk (router-router) link capacity as a multiple of
  /// hosts_per_router * host_rate; 1.0 = a trunk carries its routers' full
  /// host load.
  double trunk_scale = 1.0;
  std::size_t route_k = 4;   ///< route-set size per router pair (>= 1)
};

/// One parsed `--topology` CLI spec; see parse() for the accepted grammar.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kLeafSpine;
  // leaf-spine
  std::size_t racks = 4;
  std::size_t hosts = 4;
  std::size_t spines = 2;
  /// Rack uplink oversubscription: the S uplinks of a rack share
  /// hosts * host_rate / oversub total capacity. Values below 1 are allowed
  /// (undersubscription); at or below 1/spines the spine layer can never be
  /// the bottleneck, which is the flat-equivalence regime of the tests.
  double oversub = 1.0;
  // fat-tree
  std::size_t fat_k = 4;      ///< even, >= 2; hosts = k^3/4
  double core_scale = 1.0;    ///< oversubscription of the agg<->core layer
  // irregular
  std::size_t nodes = 16;     ///< hosts of the waxman topology
  std::uint64_t seed = 1;
  WaxmanOptions waxman;
  /// Host port rate (bytes/s); callers usually overwrite with --port-rate.
  double host_rate = Fabric::kDefaultPortRate;

  /// Parse "kind[:key=value,...]", e.g.
  ///   "leafspine:racks=32,hosts=16,spines=4,oversub=4"
  ///   "fattree:k=4,core-scale=2"
  ///   "waxman:nodes=24,routers=8,seed=7,paths=4"
  /// Kinds: leafspine | fattree | waxman. Throws std::invalid_argument on
  /// unknown kinds/keys or malformed values. host_rate has no key — set it
  /// from the CLI's --port-rate.
  static TopologySpec parse(std::string_view text);
  /// Canonical round-trippable form of the spec (host_rate omitted). Every
  /// double prints as its shortest round-trip text, so parse(to_string())
  /// reproduces each printed field bit for bit.
  std::string to_string() const;
  /// End hosts the described topology will have, without building it
  /// (racks*hosts, k^3/4, or nodes) — what Engine sizes its session to.
  std::size_t node_count() const;
};

/// Immutable topology description: capacitated directed links + route-set.
class Topology {
 public:
  using LinkId = Network::LinkId;

  /// Endpoints of one directed link in the internal graph. Graph nodes
  /// [0, nodes()) are the hosts; switches follow. The property tests walk
  /// these to prove every path is loop-free and connects src to dst.
  struct LinkEnds {
    std::uint32_t tail = 0;
    std::uint32_t head = 0;
  };

  std::size_t nodes() const noexcept { return nodes_; }
  std::size_t link_count() const noexcept { return capacity_.size(); }
  double link_capacity(LinkId link) const { return capacity_.at(link); }
  TopologyKind kind() const noexcept { return kind_; }
  /// Hosts + switches of the internal graph.
  std::size_t graph_nodes() const noexcept { return graph_nodes_; }
  LinkEnds link_ends(LinkId link) const { return ends_.at(link); }

  /// Number of alternative paths of an ordered pair (>= 1; requires
  /// src != dst, both < nodes()).
  std::size_t path_count(std::uint32_t src, std::uint32_t dst) const;
  /// Append path `k`'s full link sequence — egress port, switch segment,
  /// ingress port — to `out`. Requires k < path_count(src, dst).
  void append_path_links(std::uint32_t src, std::uint32_t dst, std::uint32_t k,
                         std::vector<LinkId>& out) const;
  std::vector<LinkId> path_links(std::uint32_t src, std::uint32_t dst,
                                 std::uint32_t k) const {
    std::vector<LinkId> out;
    append_path_links(src, dst, k, out);
    return out;
  }
  /// Largest path_count over all pairs (1 on a single-switch topology).
  std::size_t max_path_count() const noexcept { return max_paths_; }

  // --- factories -----------------------------------------------------
  /// Leaf-spine: `racks` racks of `hosts_per_rack` hosts, one uplink and one
  /// downlink per (rack, spine) pair, each of capacity
  /// hosts_per_rack * host_rate / (oversubscription * spines). Cross-rack
  /// pairs get one path per spine.
  static std::shared_ptr<const Topology> leaf_spine(std::size_t racks,
                                                    std::size_t hosts_per_rack,
                                                    std::size_t spines,
                                                    double host_rate,
                                                    double oversubscription);
  /// k-ary fat-tree at full bisection (all links host_rate) except the
  /// agg<->core layer, scaled down by `core_oversubscription`.
  static std::shared_ptr<const Topology> fat_tree(
      std::size_t k, double host_rate, double core_oversubscription = 1.0);
  /// Seeded Waxman irregular topology; identical seeds produce identical
  /// topologies on every run and thread count (single-threaded Pcg32 build).
  static std::shared_ptr<const Topology> waxman(std::size_t hosts,
                                                double host_rate,
                                                std::uint64_t seed,
                                                const WaxmanOptions& options);

 private:
  friend class TopologyBuilder;
  Topology() = default;

  TopologyKind kind_ = TopologyKind::kLeafSpine;
  std::size_t nodes_ = 0;
  std::size_t graph_nodes_ = 0;
  std::size_t max_paths_ = 1;
  std::vector<double> capacity_;  ///< per LinkId
  std::vector<LinkEnds> ends_;    ///< per LinkId
  // Route-set storage: pair -> attachment group -> segment paths. Segments
  // exclude the host ports, which append_path_links synthesizes, so the
  // store scales with switch pairs.
  std::vector<std::uint32_t> pair_group_;  ///< size nodes^2 (diagonal unused)
  std::vector<std::uint32_t> group_off_;   ///< group -> [path_ids)
  std::vector<std::uint32_t> path_off_;    ///< path -> [links)
  std::vector<LinkId> path_links_;         ///< flat switch-segment links
};

/// Build the topology a spec describes.
std::shared_ptr<const Topology> make_topology(const TopologySpec& spec);

/// One selected path index per ordered (src, dst) pair, indexed
/// src * nodes + dst (diagonal unused). The routing policies in
/// multipath.hpp produce these.
using RouteChoice = std::vector<std::uint32_t>;

/// (topology, route choice) bound as a generic Network.
class RoutedTopology final : public Network {
 public:
  RoutedTopology(std::shared_ptr<const Topology> topology, RouteChoice choice);

  std::size_t nodes() const noexcept override { return topology_->nodes(); }
  std::size_t link_count() const noexcept override {
    return topology_->link_count();
  }
  double link_capacity(LinkId link) const override {
    return topology_->link_capacity(link);
  }
  void append_links(std::uint32_t src, std::uint32_t dst,
                    std::vector<LinkId>& out) const override;

  const Topology& topology() const noexcept { return *topology_; }
  const RouteChoice& choice() const noexcept { return choice_; }

 private:
  std::shared_ptr<const Topology> topology_;
  RouteChoice choice_;
};

/// Static ECMP: path = (src + dst) mod path_count — volume-oblivious, the
/// baseline of production fabrics.
RouteChoice route_ecmp(const Topology& topology);

/// Collapse every route-set to its first path ("k routes collapsed to 1" —
/// the single-path degeneration the equivalence tests pin against). On a
/// one-spine leaf-spine this is the only route choice there is.
RouteChoice route_collapsed(const Topology& topology);

/// Volume-greedy: flows in descending volume order each take the path that
/// minimizes the resulting worst utilization over the path's links; pairs
/// without volume keep their ECMP path. Dense callers wrap their FlowMatrix
/// with Demand::from_matrix.
RouteChoice route_greedy(const Topology& topology, const Demand& demand);

}  // namespace ccf::net
