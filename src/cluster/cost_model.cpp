#include "cluster/cost_model.hpp"

#include <cmath>

namespace psanim::cluster {

double CostModel::host_overhead_s(net::Interconnect ic) const {
  switch (ic) {
    case net::Interconnect::kLoopback: return 0.5e-6;
    case net::Interconnect::kMyrinet: return 3e-6;        // user-level GM
    case net::Interconnect::kGigabitEthernet: return 40e-6;
    // Kernel TCP on a 2001 Fast-Ethernet stack: syscall + checksum +
    // copies; ~120 us per message on the reference PIII.
    case net::Interconnect::kFastEthernet: return 120e-6;
    case net::Interconnect::kCustom: return 10e-6;
  }
  return 10e-6;
}

double CostModel::host_bandwidth_bps(net::Interconnect ic) const {
  switch (ic) {
    case net::Interconnect::kLoopback: return 800e6;
    case net::Interconnect::kMyrinet: return 500e6;  // zero-copy GM DMA
    case net::Interconnect::kGigabitEthernet: return 100e6;
    case net::Interconnect::kFastEthernet: return 60e6;  // TCP copies
    case net::Interconnect::kCustom: return 200e6;
  }
  return 200e6;
}

double CostModel::sort_s(std::size_t n, double rate) const {
  if (n < 2) return 0.0;
  const auto dn = static_cast<double>(n);
  return sort_cost * dn * std::log2(dn) / rate;
}

mp::LinkCostFn make_link_cost_fn(const ClusterSpec& spec,
                                 const Placement& placement,
                                 const CostModel& cost,
                                 const platform::Platform* plat) {
  // Capture everything by value (the platform by pointer): the returned
  // closure outlives its inputs.
  const auto rates = rank_rates(spec, placement, cost.smp_contention);
  const auto node_of = placement.node_of_rank;
  std::vector<net::NicSet> nics;
  nics.reserve(spec.node_count());
  for (const auto& n : spec.nodes) nics.push_back(n.nics);
  const auto preferred = spec.preferred;
  const CostModel cm = cost;

  return [rates, node_of, nics, preferred, cm, plat](
             int src, int dst, std::size_t bytes) -> mp::MsgCost {
    const auto sn =
        static_cast<std::size_t>(node_of.at(static_cast<std::size_t>(src)));
    const auto dn =
        static_cast<std::size_t>(node_of.at(static_cast<std::size_t>(dst)));
    platform::Platform::Wire w;
    if (plat != nullptr) {
      w = plat->wire(sn, dn);
    } else {
      const auto link =
          net::resolve_link(nics[sn], nics[dn], sn == dn, preferred);
      w = {link.latency_s, link.bandwidth_bps, link.kind, link.kind};
    }
    const double b = static_cast<double>(bytes);
    const auto host_s = [&](net::Interconnect kind) {
      return cm.host_overhead_s(kind) + b / cm.host_bandwidth_bps(kind);
    };
    return mp::MsgCost{
        .send_cpu_s =
            host_s(w.src_kind) / rates.at(static_cast<std::size_t>(src)),
        .wire_s = w.latency_s + b / w.bottleneck_bps,
        .recv_cpu_s =
            host_s(w.dst_kind) / rates.at(static_cast<std::size_t>(dst)),
    };
  };
}

}  // namespace psanim::cluster
