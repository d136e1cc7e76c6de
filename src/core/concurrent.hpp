// Joint co-optimization of concurrent operators (extension).
//
// The paper co-optimizes one operator at a time. When several operators'
// shuffles share the fabric simultaneously, per-operator optimal plans can
// collide on the same ports. Since the placement model treats partitions
// independently, k concurrent operators simply become one larger instance —
// the union of their partitions over the same nodes — and Algorithm 1
// applies verbatim to the stacked chunk matrix, balancing the *combined*
// load. run_concurrent_operators() compares that joint plan against
// independent per-operator plans on the same simulated fabric.
#pragma once

#include <string>
#include <vector>

#include "data/workload.hpp"
#include "net/fabric.hpp"
#include "net/simulator.hpp"

namespace ccf::core {

/// One operator (e.g. one join's shuffle) of a multi-operator job.
struct OperatorSpec {
  std::string name = "op";
  double arrival = 0.0;  ///< when its coflow becomes ready (seconds)
  data::WorkloadSpec workload;
};

/// Placement and network policy shared by every operator of a job (and by
/// every stage of a run_query plan, via QueryOptions::job).
struct JobOptions {
  std::string scheduler = "ccf";  ///< placement policy for every operator
  bool skew_handling = true;
  std::string allocator = "varys";  ///< inter-coflow policy (registry name)
  double port_rate = net::Fabric::kDefaultPortRate;
};

struct ConcurrentReport {
  /// Simulated together (all coflows at t = 0) under the chosen allocator.
  net::SimReport independent;  ///< each operator placed in isolation
  net::SimReport joint;        ///< one stacked placement across operators

  /// The model-level metric: Γ of the union of all operators' flows — the
  /// CCT if the operators were executed as one merged coflow (they share a
  /// barrier). The stacked greedy minimizes exactly this.
  double union_gamma_independent = 0.0;
  double union_gamma_joint = 0.0;

  double independent_makespan() const noexcept { return independent.makespan; }
  double joint_makespan() const noexcept { return joint.makespan; }
  double speedup() const noexcept {
    return joint.makespan > 0.0 ? independent.makespan / joint.makespan : 1.0;
  }
  double union_gamma_speedup() const noexcept {
    return union_gamma_joint > 0.0
               ? union_gamma_independent / union_gamma_joint
               : 1.0;
  }
};

/// Place `operators` both ways and simulate each configuration. All
/// operators must share a node count; skew handling follows options.
ConcurrentReport run_concurrent_operators(
    const std::vector<OperatorSpec>& operators, const JobOptions& options);

}  // namespace ccf::core
