// Quickstart: schedule one distributed join with CCF and compare it against
// the Hash and Mini baselines on a paper-style workload.
//
//   ./quickstart [--nodes 100] [--zipf 0.8] [--skew 0.2]
//
// Prints, per system, the network traffic and the simulated network
// communication time (CCT) — the two metrics of the paper's evaluation.
#include <iostream>
#include <memory>
#include <utility>

#include "core/ccf.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  ccf::util::ArgParser args("quickstart",
                            "One CCF-vs-baselines join comparison");
  args.add_flag("nodes", "100", "number of computing nodes");
  args.add_flag("zipf", "0.8", "Zipf factor of per-node chunk sizes");
  args.add_flag("skew", "0.2", "fraction of ORDERS rewritten to the hot key");
  args.parse(argc, argv);

  // 1. Describe the workload: TPC-H SF600 CUSTOMER ⋈ ORDERS, p = 15n
  //    partitions, chunk sizes Zipf-distributed across nodes.
  ccf::data::WorkloadSpec spec = ccf::data::WorkloadSpec::paper_default(
      static_cast<std::size_t>(args.get_int("nodes")));
  spec.zipf_theta = args.get_double("zipf");
  spec.skew = args.get_double("skew");
  const auto workload = std::make_shared<const ccf::data::Workload>(
      ccf::data::generate_workload(spec));

  std::cout << "Workload: " << ccf::util::format_bytes(workload->matrix.total())
            << " over " << spec.nodes << " nodes, " << spec.partitions
            << " partitions (zipf=" << spec.zipf_theta
            << ", skew=" << spec.skew << ")\n\n";

  // 2. Open an Engine session on the cluster's fabric. Its default
  //    inter-coflow scheduler is MADD, the optimal coflow schedule that all
  //    three systems of the paper's evaluation get.
  ccf::core::EngineOptions options;
  options.nodes = spec.nodes;
  ccf::core::Engine engine(std::move(options));

  // 3. Run the three systems one query at a time: submit, then drain the
  //    epoch. Mini and CCF get skew handling (QuerySpec::paper_system).
  ccf::util::Table table({"system", "traffic", "comm. time", "schedule time"});
  double ccf_time = 0.0, hash_time = 0.0, mini_time = 0.0;
  for (const char* name : {"hash", "mini", "ccf"}) {
    engine.submit(ccf::core::QuerySpec::paper_system(name, workload));
    const ccf::core::RunReport r = engine.drain().queries.front();
    table.add_row({name, ccf::util::format_bytes(r.traffic_bytes),
                   ccf::util::format_seconds(r.cct_seconds),
                   ccf::util::format_seconds(r.schedule_seconds)});
    if (std::string(name) == "ccf") ccf_time = r.cct_seconds;
    if (std::string(name) == "hash") hash_time = r.cct_seconds;
    if (std::string(name) == "mini") mini_time = r.cct_seconds;
  }
  table.print(std::cout);

  std::cout << "\nCCF speedup: " << ccf::util::format_fixed(hash_time / ccf_time, 2)
            << "x over Hash, " << ccf::util::format_fixed(mini_time / ccf_time, 2)
            << "x over Mini\n";
  return 0;
}
