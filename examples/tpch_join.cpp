// Tuple-level distributed TPC-H join: generates real CUSTOMER/ORDERS tuples,
// injects skew, runs the whole CCF pipeline for each system AND executes the
// join tuple-by-tuple on the simulated cluster, verifying that every
// placement produces the identical (correct) join result.
//
//   ./tpch_join [--sf 0.05] [--nodes 8] [--skew 0.2] [--zipf 0.8]
//
// This is the end-to-end path: data -> hash partitioning -> skew handling ->
// placement scheduling -> tuple redistribution -> local hash joins.
#include <iostream>
#include <memory>
#include <utility>

#include "core/ccf.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  ccf::util::ArgParser args("tpch_join", "Tuple-level distributed join demo");
  args.add_flag("sf", "0.05", "TPC-H scale factor (paper: 600)");
  args.add_flag("nodes", "8", "number of computing nodes");
  args.add_flag("skew", "0.2", "fraction of ORDERS rewritten to custkey 1");
  args.add_flag("zipf", "0.8", "Zipf factor of tuple placement");
  args.parse(argc, argv);

  ccf::data::TpchConfig cfg;
  cfg.scale_factor = args.get_double("sf");
  cfg.nodes = static_cast<std::size_t>(args.get_int("nodes"));
  cfg.zipf_theta = args.get_double("zipf");

  std::cout << "Generating TPC-H data at SF " << cfg.scale_factor << ": "
            << cfg.customer_rows() << " customers, " << cfg.orders_rows()
            << " orders over " << cfg.nodes << " nodes...\n";
  auto customer = ccf::data::generate_customer(cfg);
  auto orders = ccf::data::generate_orders(cfg);

  const double skew = args.get_double("skew");
  if (skew > 0.0) {
    ccf::util::Pcg32 rng(cfg.seed, 99);
    const auto rewritten = ccf::data::inject_skew(orders, skew, 1, rng);
    std::cout << "Injected skew: " << rewritten
              << " orders rewritten to custkey 1\n";
  }

  const std::size_t partitions = 15 * cfg.nodes;  // the paper's ratio
  const auto workload = std::make_shared<const ccf::data::Workload>(
      ccf::data::workload_from_tuples(customer, orders, partitions, 1));
  const auto truth = ccf::join::reference_join_cardinality(customer, orders);
  std::cout << "Reference join cardinality: " << truth << " tuples\n\n";

  ccf::util::Table t({"system", "traffic", "comm. time", "result tuples",
                      "correct"});
  ccf::core::EngineOptions options;
  options.nodes = workload->matrix.nodes();
  ccf::core::Engine engine(std::move(options));
  for (const char* name : {"hash", "mini", "ccf"}) {
    const auto query = ccf::core::QuerySpec::paper_system(name, workload);
    engine.submit(query);
    const ccf::core::RunReport report = engine.drain().queries.front();

    // Execute the same placement decision at tuple level.
    const auto prepared =
        ccf::core::apply_partial_duplication(*workload, query.skew_handling);
    const auto problem = prepared.problem();
    const auto dest = ccf::join::make_scheduler(name)->schedule(problem);
    const auto exec = ccf::join::execute_distributed_join(
        customer, orders, partitions, dest,
        query.skew_handling ? &workload->skew : nullptr);

    t.add_row({name, ccf::util::format_bytes(exec.flows.traffic()),
               ccf::util::format_seconds(report.cct_seconds),
               std::to_string(exec.result_tuples),
               exec.result_tuples == truth ? "yes" : "NO"});
    if (exec.result_tuples != truth) {
      std::cerr << "ERROR: " << name << " produced a wrong join result!\n";
      return 1;
    }
  }
  t.print(std::cout);
  std::cout << "\nAll placements produce the identical, correct join result; "
               "only the network cost differs.\n";
  return 0;
}
