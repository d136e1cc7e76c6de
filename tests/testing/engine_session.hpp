// One query through a fresh one-query Engine session: the single-join run
// the paper's figures report, shared by the core suites.
#pragma once

#include <utility>

#include "core/engine.hpp"

namespace ccf::testing {

/// Submit `query` as the only query of a fresh Engine built from `options`
/// and drain it. A zero options.nodes on a flat fabric takes the workload's
/// width.
inline core::EngineReport drain_one(core::QuerySpec query,
                                    core::EngineOptions options = {}) {
  if (options.nodes == 0 && options.topology.empty() && query.workload) {
    options.nodes = query.workload->matrix.nodes();
  }
  core::Engine engine(std::move(options));
  engine.submit(std::move(query));
  return engine.drain();
}

/// The report of drain_one's only query.
inline core::RunReport run_one(core::QuerySpec query,
                               core::EngineOptions options = {}) {
  return drain_one(std::move(query), std::move(options)).queries.front();
}

}  // namespace ccf::testing
