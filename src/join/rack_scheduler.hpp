// Rack-aware CCF placement (extension, §III-A note on complex networks).
//
// On a two-tier topology a cross-rack flow also consumes rack uplink
// bandwidth, so the makespan objective generalizes from the 2n-port
// bottleneck to
//
//   T = max( host-egress_i/ce, host-ingress_j/ci,
//            uplink-out_r/cu,  uplink-in_r/cu )        (normalized seconds)
//
// This scheduler runs the same greedy as Algorithm 1 but scores every
// candidate destination against all four link families, in O(p·(n + r))
// total via the same top-2 trick. With oversubscription 1.0 the uplinks can
// still bind (a rack's aggregate traffic exceeding its uplink), so this can
// beat the flat heuristic even on full-bisection rack fabrics.
//
// The topology is a net::Topology leaf-spine: a host's rack is the ToR
// switch its egress port attaches to, and a rack's uplink capacity cu is the
// sum of that switch's switch-level outgoing links (its spine uplinks).
#pragma once

#include <cstdint>
#include <vector>

#include "join/schedulers.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"

namespace ccf::join {

class RackCcfScheduler final : public PartitionScheduler {
 public:
  /// Reads the rack structure of a leaf-spine topology; any other kind
  /// throws std::invalid_argument.
  explicit RackCcfScheduler(const net::Topology& topology);

  std::string name() const override { return "ccf-rack"; }

  /// Optional pre-existing flows (e.g. skew-handler broadcasts) whose
  /// uplink usage should be accounted as initial load. The matrix must
  /// outlive schedule() calls. Pass nullptr to clear.
  void set_initial_flows(const net::FlowMatrix* flows) {
    initial_flows_ = flows;
  }

  Assignment schedule(const AssignmentProblem& problem) override;

 private:
  std::vector<std::uint32_t> rack_of_;  ///< host -> rack index
  double host_rate_ = 0.0;              ///< host port capacity ce
  std::vector<double> uplink_rate_;     ///< rack -> summed spine uplinks cu
  const net::FlowMatrix* initial_flows_ = nullptr;
};

}  // namespace ccf::join
