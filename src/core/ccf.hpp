// Umbrella header: include everything a CCF user needs.
//
//   #include "core/ccf.hpp"
//
//   auto workload = std::make_shared<const ccf::data::Workload>(
//       ccf::data::generate_workload(
//           ccf::data::WorkloadSpec::paper_default(500)));
//   ccf::core::Engine engine({.nodes = 500});
//   engine.submit(ccf::core::QuerySpec::paper_system("ccf", workload));
//   std::cout << engine.drain().queries.front().cct_seconds << "\n";
#pragma once

#include "core/concurrent.hpp"     // IWYU pragma: export
#include "core/engine.hpp"         // IWYU pragma: export
#include "core/query.hpp"          // IWYU pragma: export
#include "core/registry.hpp"       // IWYU pragma: export
#include "core/skew_handling.hpp"  // IWYU pragma: export
#include "core/stages.hpp"         // IWYU pragma: export
#include "data/chunk_matrix.hpp"   // IWYU pragma: export
#include "data/partitioner.hpp"    // IWYU pragma: export
#include "data/relation.hpp"       // IWYU pragma: export
#include "data/skew.hpp"           // IWYU pragma: export
#include "data/tpch.hpp"           // IWYU pragma: export
#include "data/workload.hpp"       // IWYU pragma: export
#include "join/aggregate.hpp"      // IWYU pragma: export
#include "join/exec.hpp"           // IWYU pragma: export
#include "join/flows.hpp"          // IWYU pragma: export
#include "join/local_join.hpp"     // IWYU pragma: export
#include "join/rack_scheduler.hpp" // IWYU pragma: export
#include "join/schedulers.hpp"     // IWYU pragma: export
#include "net/allocator.hpp"       // IWYU pragma: export
#include "net/coflow.hpp"          // IWYU pragma: export
#include "net/fabric.hpp"          // IWYU pragma: export
#include "net/flow.hpp"            // IWYU pragma: export
#include "net/metrics.hpp"         // IWYU pragma: export
#include "net/multipath.hpp"       // IWYU pragma: export
#include "net/simulator.hpp"       // IWYU pragma: export
#include "net/topology.hpp"        // IWYU pragma: export
#include "opt/bnb.hpp"             // IWYU pragma: export
#include "opt/bounds.hpp"          // IWYU pragma: export
#include "opt/local_search.hpp"    // IWYU pragma: export
#include "opt/model.hpp"           // IWYU pragma: export
