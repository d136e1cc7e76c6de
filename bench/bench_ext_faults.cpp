// Extension bench: CCT degradation under fabric faults (DESIGN.md §6).
//
// Runs the paper-style join workload through four system configurations
// (placement + network allocator) and, for each, compares three fabric
// conditions:
//   clean       — the pristine non-blocking switch every figure assumes;
//   faulted     — a mid-shuffle hard ingress failure plus a straggler,
//                 timed relative to each config's own clean CCT so every
//                 system is hit at the same phase of its shuffle; the dead
//                 port stays down for 3x the clean CCT (a real failure, not
//                 a flap), so riding it out costs at least the outage;
//   re-placed   — the same faults with the simulator's failure-aware
//                 re-placement switched on (unfinished remainders move off
//                 the dead port onto surviving nodes).
// Re-placement is a win exactly when the outage is long against the
// shuffle; for sub-CCT flaps, waiting for the restore beats permanently
// rebalancing the remainders — measured here, not assumed.
// The table this prints is the source of the EXPERIMENTS.md fault table.
#include <iostream>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

struct SystemConfig {
  const char* label;
  const char* scheduler;
  const char* allocator;  ///< registry name
  bool skew_handling;
};

constexpr SystemConfig kSystems[] = {
    {"hash + fair", "hash", "fair", false},
    {"hash + aalo", "hash", "aalo", false},
    {"ccf-ls + madd", "ccf-ls", "madd", true},
    {"ccf-portfolio + madd", "ccf-portfolio", "madd", true},
};

}  // namespace

int main(int argc, char** argv) {
  try {
    ccf::util::ArgParser args("bench_ext_faults",
                              "CCT degradation and recovery under faults");
    args.add_flag("nodes", "50", "number of nodes");
    args.add_flag("customer-bytes", "900M", "CUSTOMER relation size");
    args.add_flag("orders-bytes", "9G", "ORDERS relation size");
    args.add_flag("seed", "42", "workload rng seed");
    args.parse(argc, argv);

    const auto nodes = static_cast<std::size_t>(args.get_int("nodes"));
    ccf::data::WorkloadSpec spec = ccf::data::WorkloadSpec::paper_default(nodes);
    spec.customer_bytes = ccf::util::parse_scaled(args.get("customer-bytes"));
    spec.orders_bytes = ccf::util::parse_scaled(args.get("orders-bytes"));
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const auto workload = std::make_shared<const ccf::data::Workload>(
        ccf::data::generate_workload(spec));

    std::cout << "Fault bench: " << nodes
              << "-node join shuffle; node 0's ingress port fails at 25% of "
                 "each system's clean\nCCT and stays down for 3x the clean "
                 "CCT, plus a 50% straggler on node 1 over\n[10%, 70%] of "
                 "the clean CCT.\n\n";

    ccf::util::Table t({"system", "clean CCT", "faulted CCT", "slowdown",
                        "re-placed CCT", "recovered"});
    for (const SystemConfig& sys : kSystems) {
      // One fresh one-query Engine session per fault configuration.
      auto run = [&](const ccf::net::FaultSchedule& faults,
                     bool replace_on_failure) {
        ccf::core::EngineOptions options;
        options.nodes = nodes;
        options.allocator = sys.allocator;
        options.faults = faults;
        options.fault_options.replace_on_failure = replace_on_failure;
        options.fault_options.replace_threshold = 0.0;  // hard failures only
        ccf::core::Engine engine(std::move(options));
        ccf::core::QuerySpec query(sys.scheduler, workload, sys.scheduler);
        query.skew_handling = sys.skew_handling;
        engine.submit(std::move(query));
        return engine.drain();
      };
      const double clean =
          run(ccf::net::FaultSchedule{}, false).queries.front().cct_seconds;

      // Faults at fixed fractions of the clean CCT: every system loses its
      // destination port for the same *phase* of its shuffle, which makes
      // the slowdown column comparable across systems.
      ccf::net::FaultSchedule faults;
      faults.fail_port(0.25 * clean, 0, ccf::net::PortSide::kIngress)
          .restore_port(3.0 * clean, 0)
          .slow_node(0.10 * clean, 1, 0.5)
          .restore_node(0.70 * clean, 1);
      const double hit = run(faults, false).queries.front().cct_seconds;
      const ccf::core::EngineReport repaired = run(faults, true);
      const double repaired_cct = repaired.queries.front().cct_seconds;

      t.add_row({sys.label, ccf::util::format_seconds(clean),
                 ccf::util::format_seconds(hit),
                 ccf::util::format_fixed(hit / clean, 2) + "x",
                 ccf::util::format_seconds(repaired_cct),
                 ccf::util::format_fixed(
                     (hit - repaired_cct) / (hit - clean + 1e-12) * 100.0,
                     0) +
                     "% (" + std::to_string(repaired.sim.replacements) +
                     " moved)"});
    }
    t.print(std::cout);
    std::cout << "\nWith a long outage every system's ride-out cost is the "
                 "wait for the restore;\nre-placement moves the stranded "
                 "remainders to surviving ingress ports and\nfinishes without "
                 "waiting. (For sub-CCT flaps the trade flips — waiting "
                 "beats\npermanently rebalancing — which is why "
                 "replace_on_failure is a policy, not a\ndefault.)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_ext_faults: " << e.what() << "\n";
    return 1;
  }
}
