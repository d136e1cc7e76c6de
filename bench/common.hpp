// Shared harness for the figure-reproduction benches: run the paper's three
// systems (Hash / Mini / CCF) on one workload point and collect the two
// metrics every figure reports — network traffic (GB) and network
// communication time (s) — plus optional CSV output.
#pragma once

#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/workload.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace ccf::bench {

/// Metrics of one (workload, system) run.
struct SystemPoint {
  double traffic_gb = 0.0;
  double time_s = 0.0;
  double schedule_s = 0.0;
};

/// One sweep point: the three systems the paper compares.
struct FigurePoint {
  SystemPoint hash;
  SystemPoint mini;
  SystemPoint ccf;

  double speedup_over_hash() const { return hash.time_s / ccf.time_s; }
  double speedup_over_mini() const { return mini.time_s / ccf.time_s; }
};

/// Run Hash, Mini and CCF on the workload exactly as the paper configures
/// them (optimal coflow schedule for all; skew handling for Mini and CCF),
/// one query per drain of one Engine session.
inline FigurePoint run_paper_systems(data::Workload workload) {
  const auto shared =
      std::make_shared<const data::Workload>(std::move(workload));
  core::EngineOptions options;
  options.nodes = shared->matrix.nodes();
  core::Engine engine(std::move(options));
  auto run = [&](const char* name) {
    engine.submit(core::QuerySpec::paper_system(name, shared));
    const core::RunReport r = engine.drain().queries.front();
    return SystemPoint{r.traffic_bytes / 1e9, r.cct_seconds,
                       r.schedule_seconds};
  };
  FigurePoint p;
  p.hash = run("hash");
  p.mini = run("mini");
  p.ccf = run("ccf");
  return p;
}

/// Evaluate one FigurePoint per spec, concurrently where cores allow (each
/// point generates its own workload and owns all of its state). Order is
/// preserved. Worker count is capped to bound peak memory — a 1000-node
/// point holds a ~120 MB chunk matrix plus a residual copy.
inline std::vector<FigurePoint> run_paper_systems_sweep(
    const std::vector<data::WorkloadSpec>& specs) {
  std::vector<FigurePoint> points(specs.size());
  util::parallel_for(
      specs.size(),
      [&](std::size_t i) {
        points[i] = run_paper_systems(data::generate_workload(specs[i]));
      },
      /*threads=*/4);
  return points;
}

/// Standard flags shared by the figure benches.
inline void add_common_flags(util::ArgParser& args) {
  args.add_flag("csv", "", "also write the series to this CSV file");
  args.add_flag("customer-bytes", "90G",
                "CUSTOMER relation size (paper: 90 GB at SF600)");
  args.add_flag("orders-bytes", "900G",
                "ORDERS relation size (paper: 900 GB at SF600)");
  args.add_flag("seed", "42", "master RNG seed");
}

inline void apply_common_flags(const util::ArgParser& args,
                               data::WorkloadSpec& spec) {
  spec.customer_bytes = util::parse_scaled(args.get("customer-bytes"));
  spec.orders_bytes = util::parse_scaled(args.get("orders-bytes"));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
}

/// Open the optional CSV sink.
inline std::optional<util::CsvWriter> open_csv(const util::ArgParser& args) {
  const std::string path = args.get("csv");
  if (path.empty()) return std::nullopt;
  return util::CsvWriter(path);
}

/// The standard two-table output of a figure bench: (a) traffic, (b) time.
class FigureReport {
 public:
  FigureReport(std::string x_label, std::optional<util::CsvWriter> csv)
      : x_label_(std::move(x_label)),
        traffic_({x_label_, "Hash (GB)", "Mini (GB)", "CCF (GB)"}),
        time_({x_label_, "Hash (s)", "Mini (s)", "CCF (s)", "CCF vs Hash",
               "CCF vs Mini"}),
        csv_(std::move(csv)) {
    if (csv_) {
      csv_->header({x_label_, "hash_traffic_gb", "mini_traffic_gb",
                    "ccf_traffic_gb", "hash_time_s", "mini_time_s",
                    "ccf_time_s"});
    }
  }

  void add(const std::string& x, const FigurePoint& p) {
    traffic_.add_row({x, util::format_fixed(p.hash.traffic_gb, 1),
                      util::format_fixed(p.mini.traffic_gb, 1),
                      util::format_fixed(p.ccf.traffic_gb, 1)});
    time_.add_row({x, util::format_fixed(p.hash.time_s, 1),
                   util::format_fixed(p.mini.time_s, 1),
                   util::format_fixed(p.ccf.time_s, 1),
                   util::format_fixed(p.speedup_over_hash(), 1) + "x",
                   util::format_fixed(p.speedup_over_mini(), 1) + "x"});
    if (csv_) {
      csv_->row({x, util::format_fixed(p.hash.traffic_gb, 4),
                 util::format_fixed(p.mini.traffic_gb, 4),
                 util::format_fixed(p.ccf.traffic_gb, 4),
                 util::format_fixed(p.hash.time_s, 4),
                 util::format_fixed(p.mini.time_s, 4),
                 util::format_fixed(p.ccf.time_s, 4)});
    }
  }

  void print(const std::string& fig_a, const std::string& fig_b) {
    std::cout << "--- " << fig_a << " ---\n";
    traffic_.print(std::cout);
    std::cout << "\n--- " << fig_b << " ---\n";
    time_.print(std::cout);
  }

 private:
  std::string x_label_;
  util::Table traffic_;
  util::Table time_;
  std::optional<util::CsvWriter> csv_;
};

}  // namespace ccf::bench
