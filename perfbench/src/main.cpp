// ccf_perfbench — the end-to-end benchmark of the coflow co-optimizer.
//
//   ccf_perfbench --workload <service_hot|engine_cold|sim_trace>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Every input is generated from --seed; the library only ever sees the
// generated inputs. The last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a separately traced run with
// --trace 1. Diagnostics go to stderr. See perfbench/README.md.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(std::string_view problem) {
  std::cerr << "ccf_perfbench: " << problem
            << "\nusage: ccf_perfbench --workload "
               "<service_hot|engine_cold|sim_trace> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  std::exit(2);
}

perfbench::RunArgs parse(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = parse(argc, argv);
  perfbench::Outcome outcome;
  try {
    if (args.workload == "service_hot") {
      outcome = perfbench::run_service_hot(args);
    } else if (args.workload == "engine_cold") {
      outcome = perfbench::run_engine_cold(args);
    } else if (args.workload == "sim_trace") {
      outcome = perfbench::run_sim_trace(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "ccf_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << perfbench::result_json(outcome, args.trace) << std::endl;
  return 0;
}
