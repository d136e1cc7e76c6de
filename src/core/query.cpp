#include "core/query.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine.hpp"

namespace ccf::core {

QueryReport run_query(const std::vector<QueryStage>& stages,
                      const QueryOptions& options) {
  if (stages.empty()) throw std::invalid_argument("run_query: empty plan");
  const std::size_t n = stages.front().workload.nodes;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (stages[s].workload.nodes != n) {
      throw std::invalid_argument("run_query: stages span different clusters");
    }
    if (stages[s].compute_seconds < 0.0 ||
        !std::isfinite(stages[s].compute_seconds)) {
      throw std::invalid_argument("run_query: invalid compute time");
    }
    for (const std::size_t dep : stages[s].depends_on) {
      if (dep >= s) {
        throw std::invalid_argument(
            "run_query: dependencies must reference earlier stages");
      }
    }
  }

  // One Engine session; every fixed-point round is one epoch that submits
  // each stage at its refined ready time. The stage workloads are shared
  // across rounds, so the first round runs the placement fan-out and every
  // later round hits the plan cache (bit-identical to re-placing: the
  // schedulers are deterministic); only arrivals iterate.
  std::vector<std::shared_ptr<const data::Workload>> workloads;
  workloads.reserve(stages.size());
  for (const QueryStage& stage : stages) {
    workloads.push_back(std::make_shared<const data::Workload>(
        data::generate_workload(stage.workload)));
  }
  EngineOptions eopts;
  eopts.nodes = n;
  eopts.port_rate = options.job.port_rate;
  eopts.allocator = options.job.allocator;
  Engine engine(std::move(eopts));

  // Initial ready times: longest compute-only path.
  std::vector<double> ready(stages.size(), 0.0);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    double dep_done = 0.0;
    for (const std::size_t dep : stages[s].depends_on) {
      dep_done = std::max(dep_done, ready[dep]);  // zero-network guess
    }
    ready[s] = dep_done + stages[s].compute_seconds;
  }

  QueryReport report;
  EngineReport epoch;
  for (report.iterations = 1; report.iterations <= options.max_iterations;
       ++report.iterations) {
    for (std::size_t s = 0; s < stages.size(); ++s) {
      QuerySpec query(stages[s].name, workloads[s], options.job.scheduler,
                      ready[s]);
      query.skew_handling = options.job.skew_handling;
      engine.submit(std::move(query));
    }
    engine.drain_into(epoch);

    // Recompute ready times from the simulated completions.
    bool changed = false;
    std::vector<double> next_ready(stages.size(), 0.0);
    for (std::size_t s = 0; s < stages.size(); ++s) {
      double dep_done = 0.0;
      for (const std::size_t dep : stages[s].depends_on) {
        dep_done = std::max(dep_done, epoch.sim.coflows[dep].completion);
      }
      next_ready[s] =
          std::max(ready[s], dep_done + stages[s].compute_seconds);
      if (next_ready[s] > ready[s] + options.convergence_epsilon) {
        changed = true;
      }
    }
    ready = std::move(next_ready);
    if (!changed) break;
  }
  report.iterations = std::min(report.iterations, options.max_iterations);

  report.stages.resize(stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    report.stages[s].name = stages[s].name;
    report.stages[s].ready = epoch.sim.coflows[s].arrival;
    report.stages[s].completion = epoch.sim.coflows[s].completion;
    report.stages[s].traffic_bytes = epoch.queries[s].traffic_bytes;
    report.makespan = std::max(report.makespan, report.stages[s].completion);
  }
  report.sim = std::move(epoch.sim);
  return report;
}

}  // namespace ccf::core
