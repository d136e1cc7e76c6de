// Multi-operator analytical job with online coflows — the architecture of
// Fig. 3 ("an analytical job is decomposed into sequential distributed data
// operators") plus the paper's future-work direction: several operators'
// coflows overlapping on the fabric under different inter-coflow schedulers.
//
//   ./analytics_job [--nodes 50] [--operators 4] [--stagger 10]
//
// Compares FIFO+MADD, Varys (SEBF), Aalo (D-CLAS) and per-flow fair sharing
// on the same CCF-scheduled job.
#include <iostream>
#include <utility>
#include <vector>

#include "core/ccf.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  ccf::util::ArgParser args("analytics_job",
                            "Online coflows from a multi-join job");
  args.add_flag("nodes", "50", "number of computing nodes");
  args.add_flag("operators", "4", "number of join operators in the job");
  args.add_flag("stagger", "10", "seconds between operator arrivals");
  args.parse(argc, argv);

  const auto nodes = static_cast<std::size_t>(args.get_int("nodes"));
  const auto op_count = static_cast<std::size_t>(args.get_int("operators"));
  const double stagger = args.get_double("stagger");

  // A star-schema-ish job: one big fact join then smaller dimension joins,
  // each operator one query with its own arrival.
  std::vector<ccf::core::QuerySpec> ops;
  for (std::size_t i = 0; i < op_count; ++i) {
    ccf::data::WorkloadSpec spec = ccf::data::WorkloadSpec::paper_default(nodes);
    const double shrink = 1.0 / static_cast<double>(1 + i);  // later ops smaller
    spec.customer_bytes *= 0.01 * shrink;
    spec.orders_bytes *= 0.01 * shrink;
    spec.seed = 100 + i;
    ops.emplace_back("op" + std::to_string(i),
                     ccf::data::generate_workload(spec), "ccf",
                     stagger * static_cast<double>(i));
  }

  std::cout << "Job: " << op_count << " join operators on " << nodes
            << " nodes, arrivals staggered by " << stagger << " s\n\n";

  // One Engine session per inter-coflow scheduler; the whole job is one
  // epoch in which the operators' coflows contend.
  ccf::util::Table t({"inter-coflow scheduler", "avg CCT", "job makespan"});
  for (const auto& [name, label] :
       {std::pair{"madd", "FIFO+MADD"},
        std::pair{"varys", "Varys (SEBF)"},
        std::pair{"aalo", "Aalo (D-CLAS)"},
        std::pair{"sincronia", "Sincronia (BSSI)"},
        std::pair{"fair", "fair sharing"}}) {
    ccf::core::EngineOptions options;
    options.nodes = nodes;
    options.allocator = name;
    ccf::core::Engine engine(std::move(options));
    for (const ccf::core::QuerySpec& op : ops) engine.submit(op);
    const ccf::core::EngineReport report = engine.drain();
    t.add_row({label, ccf::util::format_seconds(report.sim.average_cct()),
               ccf::util::format_seconds(report.sim.makespan)});
  }
  t.print(std::cout);

  std::cout << "\nCCF's placement layer is agnostic to the coflow scheduler "
               "underneath —\nany of these can serve as the data processing "
               "layer of Fig. 3.\n";
  return 0;
}
