#pragma once

// Cluster specification: node types, the paper's machines, and builders
// for the experiment configurations of §5.

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/cpu_model.hpp"
#include "net/network_model.hpp"

namespace psanim::cluster {

/// A physical node: CPU model, processor count, memory and NICs.
struct NodeType {
  std::string name;
  CpuModel cpu;
  int cpus = 1;
  double ram_mb = 256;
  net::NicSet nics;

  /// HP NetServer E60 — dual Pentium III 550 MHz ("type A" in the paper).
  static NodeType e60();
  /// HP NetServer E800 — dual Pentium III 1 GHz ("type B").
  static NodeType e800();
  /// HP zx2000 — Itanium II 900 MHz, Fast-Ethernet only ("type C").
  static NodeType zx2000();
  /// Generic single-CPU node with a given relative rate; used in tests.
  static NodeType generic(double rate, int cpus = 1);
};

/// A whole cluster: a list of nodes, a preferred interconnect and the
/// compiler the binaries were built with (compiler affects every node's
/// effective rate; the paper evaluates GCC and ICC builds separately).
/// The spec is the only description of the machine: run_parallel and the
/// farm take topology and checkpoint disk from it and nowhere else.
struct ClusterSpec {
  std::vector<NodeType> nodes;
  net::Interconnect preferred = net::Interconnect::kFastEthernet;
  Compiler compiler = Compiler::kGcc;
  /// Topology platform description (platform::parse form: a preset name,
  /// DSL, or JSON), parsed against node_count() at run time; its `;disk:`
  /// clause is every rank's checkpoint disk. Empty or "flat" keeps the
  /// legacy per-pair alpha-beta model — no zone tree, no shared-link
  /// contention, free checkpoint I/O, bit-identical to pre-platform
  /// behavior.
  std::string platform;

  std::size_t node_count() const { return nodes.size(); }
  /// Effective per-CPU rate of node `i` under this spec's compiler.
  double node_rate(std::size_t i) const {
    return nodes.at(i).cpu.rate(compiler);
  }
  /// Sum over nodes of cpus * rate: the cluster's ideal aggregate power.
  double aggregate_power() const;

  ClusterSpec& add(const NodeType& type, std::size_t count = 1);

  /// `n` identical nodes.
  static ClusterSpec homogeneous(const NodeType& type, std::size_t count,
                                 net::Interconnect preferred,
                                 Compiler compiler);
  /// The full 18-node cluster of §5 (8×E60 + 8×E800 + 2×zx2000).
  static ClusterSpec paper_cluster(net::Interconnect preferred,
                                   Compiler compiler);
};

}  // namespace psanim::cluster
