#include "join/rack_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace ccf::join {

namespace {

// Top-2 tracker over a family of candidate-dependent values.
struct Top2 {
  double max = -1.0;
  double second = -1.0;
  std::size_t arg = 0;

  void feed(double v, std::size_t idx) noexcept {
    if (v > max) {
      second = max;
      max = v;
      arg = idx;
    } else if (v > second) {
      second = v;
    }
  }
  double excluding(std::size_t idx) const noexcept {
    return idx == arg ? second : max;
  }
};

constexpr std::uint32_t kNoRack = 0xffffffffu;

}  // namespace

RackCcfScheduler::RackCcfScheduler(const net::Topology& topology) {
  if (topology.kind() != net::TopologyKind::kLeafSpine) {
    throw std::invalid_argument("RackCcfScheduler: needs a leaf-spine topology");
  }
  const std::size_t n = topology.nodes();
  // Racks are numbered by the ToR switch each host's egress port attaches to.
  std::vector<std::uint32_t> rack_of_switch(topology.graph_nodes(), kNoRack);
  std::uint32_t racks = 0;
  rack_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto tor =
        topology.link_ends(static_cast<net::Topology::LinkId>(i)).head;
    if (rack_of_switch[tor] == kNoRack) rack_of_switch[tor] = racks++;
    rack_of_[i] = rack_of_switch[tor];
  }
  host_rate_ = topology.link_capacity(0);
  // Switch-level links start after the 2n host ports; a ToR's outgoing ones
  // are its spine uplinks.
  uplink_rate_.assign(racks, 0.0);
  for (std::size_t l = 2 * n; l < topology.link_count(); ++l) {
    const auto id = static_cast<net::Topology::LinkId>(l);
    const std::uint32_t rack = rack_of_switch[topology.link_ends(id).tail];
    if (rack != kNoRack) uplink_rate_[rack] += topology.link_capacity(id);
  }
}

Assignment RackCcfScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  const data::ChunkMatrix& m = *problem.matrix;
  const std::size_t n = m.nodes();
  if (n != rack_of_.size()) {
    throw std::invalid_argument(
        "RackCcfScheduler: matrix nodes != topology nodes");
  }
  const std::size_t r = uplink_rate_.size();
  const std::size_t p = m.partitions();
  const double ce = host_rate_;
  const std::vector<double>& cu = uplink_rate_;

  // Partition order: descending max chunk, as in Algorithm 1.
  std::vector<std::uint32_t> order(p);
  for (std::size_t k = 0; k < p; ++k) order[k] = static_cast<std::uint32_t>(k);
  std::stable_sort(order.begin(), order.end(),
                   [&m](std::uint32_t a, std::uint32_t b) {
                     return m.partition_max(a) > m.partition_max(b);
                   });

  // Running loads in bytes.
  std::vector<double> egress(n), ingress(n), up_out(r, 0.0), up_in(r, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    egress[i] = problem.initial_egress_at(i);
    ingress[i] = problem.initial_ingress_at(i);
  }
  if (initial_flows_ != nullptr) {
    if (initial_flows_->nodes() != n) {
      throw std::invalid_argument("RackCcfScheduler: initial flows size");
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double v = initial_flows_->volume(i, j);
        if (v <= 0.0) continue;
        const std::size_t ri = rack_of_[i];
        const std::size_t rj = rack_of_[j];
        if (ri != rj) {
          up_out[ri] += v;
          up_in[rj] += v;
        }
      }
    }
  }

  std::vector<double> rack_mass(r);  // per-partition bytes per rack
  Assignment dest(p, 0);
  for (const std::uint32_t k : order) {
    const double sk = m.partition_total(k);
    std::fill(rack_mass.begin(), rack_mass.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      rack_mass[rack_of_[i]] += m.h(k, i);
    }

    // Candidate-independent top-2s (normalized to seconds by capacity).
    Top2 t_egress;   // (egress_i + h_i)/ce over hosts
    Top2 t_ingress;  // ingress_j/ce over hosts
    for (std::size_t i = 0; i < n; ++i) {
      t_egress.feed((egress[i] + m.h(k, i)) / ce, i);
      t_ingress.feed(ingress[i] / ce, i);
    }
    Top2 t_up_out;  // (up_out_r + rack_mass_r)/cu over racks
    Top2 t_up_in;   // up_in_r/cu over racks
    for (std::size_t rr = 0; rr < r; ++rr) {
      t_up_out.feed((up_out[rr] + rack_mass[rr]) / cu[rr], rr);
      t_up_in.feed(up_in[rr] / cu[rr], rr);
    }

    double best_t = 0.0;
    std::uint32_t best_d = 0;
    bool first = true;
    for (std::uint32_t d = 0; d < n; ++d) {
      const std::size_t rd = rack_of_[d];
      // Host egress: every holder i != d sends; d's own port stays put.
      const double eg = std::max(t_egress.excluding(d), egress[d] / ce);
      // Host ingress: d gains S_k - h_dk.
      const double in =
          std::max(t_ingress.excluding(d),
                   (ingress[d] + (sk - m.h(k, d))) / ce);
      // Uplink out: every rack other than rd ships its whole rack mass up;
      // rd's uplink is untouched by this partition.
      const double uo = std::max(t_up_out.excluding(rd), up_out[rd] / cu[rd]);
      // Uplink in: rd receives everything outside it; other racks unchanged.
      const double ui = std::max(t_up_in.excluding(rd),
                                 (up_in[rd] + (sk - rack_mass[rd])) / cu[rd]);
      const double t = std::max(std::max(eg, in), std::max(uo, ui));
      if (first || t < best_t) {
        best_t = t;
        best_d = d;
        first = false;
      }
    }

    // Commit.
    const std::size_t rd = rack_of_[best_d];
    dest[k] = best_d;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != best_d) egress[i] += m.h(k, i);
    }
    ingress[best_d] += sk - m.h(k, best_d);
    for (std::size_t rr = 0; rr < r; ++rr) {
      if (rr != rd) up_out[rr] += rack_mass[rr];
    }
    up_in[rd] += sk - rack_mass[rd];
  }
  return dest;
}

}  // namespace ccf::join
