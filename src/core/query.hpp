// Analytical query plans — the paper's future-work target ("extending our
// framework model to more complex workloads (e.g., analytical queries)").
//
// A query is a DAG of operator stages: each stage's shuffle can only start
// once its upstream stages have delivered (plus local compute time). Unlike
// an Engine epoch, where arrivals are fixed a priori, here an arrival depends
// on upstream *completions*, which themselves depend on network contention
// from overlapping stages. We resolve this with a monotone fixed-point
// iteration, one Engine epoch per round:
//
//   1. guess ready times from compute times alone (zero network delay),
//   2. simulate every stage's coflow with those arrivals,
//   3. recompute ready times from the simulated completions,
//   4. repeat until no ready time moves (they are non-decreasing across
//      iterations, so this converges; a round cap guards the loop).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/concurrent.hpp"
#include "data/workload.hpp"
#include "net/simulator.hpp"

namespace ccf::core {

/// One operator stage of a query plan.
struct QueryStage {
  std::string name = "stage";
  data::WorkloadSpec workload;
  /// Indices of stages that must complete first; each must be < this
  /// stage's own index (plans are given in topological order).
  std::vector<std::size_t> depends_on;
  /// Local compute before this stage's shuffle is ready (applied after the
  /// slowest dependency completes; also the lead-in for root stages).
  double compute_seconds = 0.0;
};

struct StageResult {
  std::string name;
  double ready = 0.0;       ///< when the stage's coflow became ready
  double completion = 0.0;  ///< when its last flow finished
  double traffic_bytes = 0.0;

  double cct() const noexcept { return completion - ready; }
};

struct QueryReport {
  std::vector<StageResult> stages;
  double makespan = 0.0;       ///< completion of the last stage
  std::size_t iterations = 0;  ///< fixed-point rounds executed
  net::SimReport sim;          ///< final-round simulation detail
};

struct QueryOptions {
  JobOptions job;  ///< placement scheduler, allocator, port rate, skew
  std::size_t max_iterations = 20;
  double convergence_epsilon = 1e-6;  ///< seconds
};

/// Plan, place and simulate a whole query. Throws std::invalid_argument on
/// an empty plan, forward/self dependencies, mismatched cluster sizes, or a
/// negative or non-finite compute time.
QueryReport run_query(const std::vector<QueryStage>& stages,
                      const QueryOptions& options = {});

}  // namespace ccf::core
