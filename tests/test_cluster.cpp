// Tests for the cluster model: CPU/compiler rates, the paper's node
// presets, placement and contention, and the message-cost function.

#include <gtest/gtest.h>

#include "cluster/cluster_spec.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/cpu_model.hpp"
#include "cluster/placement.hpp"
#include "platform/platform.hpp"

namespace psanim::cluster {
namespace {

TEST(CpuModel, PaperRateOrderings) {
  const auto e60 = CpuModel::pentium3(0.55);
  const auto e800 = CpuModel::pentium3(1.0);
  const auto itanium = CpuModel::itanium2(0.9);

  // §5: E800 is the best GCC machine; Itanium+ICC the best overall;
  // Itanium+GCC is "not satisfactory".
  EXPECT_GT(e800.rate(Compiler::kGcc), itanium.rate(Compiler::kGcc));
  EXPECT_GT(itanium.rate(Compiler::kIcc), e800.rate(Compiler::kIcc));
  EXPECT_GT(e800.rate(Compiler::kIcc), e800.rate(Compiler::kGcc));
  EXPECT_GT(e800.rate(Compiler::kGcc), e60.rate(Compiler::kGcc));
}

TEST(CpuModel, ClockScalesWithinArch) {
  EXPECT_NEAR(CpuModel::pentium3(0.55).rate(Compiler::kGcc) /
                  CpuModel::pentium3(1.0).rate(Compiler::kGcc),
              0.55, 1e-9);
}

TEST(CpuModel, GenericRateIsIdentity) {
  EXPECT_DOUBLE_EQ(CpuModel::generic(2.5).rate(Compiler::kGcc), 2.5);
  EXPECT_DOUBLE_EQ(CpuModel::generic(2.5).rate(Compiler::kIcc), 2.5);
}

TEST(NodeType, PaperPresets) {
  const auto a = NodeType::e60();
  const auto b = NodeType::e800();
  const auto c = NodeType::zx2000();
  EXPECT_EQ(a.cpus, 2);
  EXPECT_EQ(b.cpus, 2);
  EXPECT_EQ(c.cpus, 1);
  EXPECT_TRUE(a.nics.myrinet);
  EXPECT_TRUE(b.nics.myrinet);
  EXPECT_FALSE(c.nics.myrinet);  // Itanium nodes only on Fast-Ethernet
  EXPECT_TRUE(c.nics.fast_ethernet);
  EXPECT_GT(c.ram_mb, b.ram_mb);
}

TEST(ClusterSpec, PaperClusterHas18Nodes) {
  const auto spec = ClusterSpec::paper_cluster(net::Interconnect::kMyrinet,
                                               Compiler::kGcc);
  EXPECT_EQ(spec.node_count(), 18u);
  EXPECT_GT(spec.aggregate_power(), 0.0);
}

TEST(ClusterSpec, AggregatePowerCountsCpus) {
  const auto spec = ClusterSpec::homogeneous(
      NodeType::generic(2.0, /*cpus=*/2), 3, net::Interconnect::kMyrinet,
      Compiler::kGcc);
  EXPECT_DOUBLE_EQ(spec.aggregate_power(), 12.0);
}

TEST(Placement, BlockFillsCpuSlotsFirst) {
  const auto spec = ClusterSpec::homogeneous(
      NodeType::e800(), 2, net::Interconnect::kMyrinet, Compiler::kGcc);
  const auto p = Placement::block(spec, 4);
  EXPECT_EQ(p.node_of_rank, (std::vector<int>{0, 0, 1, 1}));
}

TEST(Placement, BlockWrapsWhenOversubscribed) {
  const auto spec = ClusterSpec::homogeneous(
      NodeType::generic(1.0, 1), 2, net::Interconnect::kMyrinet,
      Compiler::kGcc);
  const auto p = Placement::block(spec, 5);
  EXPECT_EQ(p.node_of_rank, (std::vector<int>{0, 1, 0, 1, 0}));
}

TEST(Placement, RoundRobinCycles) {
  const auto spec = ClusterSpec::homogeneous(
      NodeType::e800(), 3, net::Interconnect::kMyrinet, Compiler::kGcc);
  const auto p = Placement::round_robin(spec, 5);
  EXPECT_EQ(p.node_of_rank, (std::vector<int>{0, 1, 2, 0, 1}));
}

TEST(Placement, RolesSpreadsOnePerNodeFirst) {
  // 2 aux nodes + 4 calculator nodes, 8 calculators: 2 per calc node.
  auto spec = ClusterSpec::homogeneous(NodeType::e800(), 6,
                                       net::Interconnect::kMyrinet,
                                       Compiler::kGcc);
  const auto p = Placement::roles(spec, 8);
  EXPECT_EQ(p.world_size(), 10);
  EXPECT_EQ(p.node_of(0), 0);  // manager
  EXPECT_EQ(p.node_of(1), 1);  // image generator
  EXPECT_EQ(p.node_of(2), 2);
  EXPECT_EQ(p.node_of(5), 5);
  EXPECT_EQ(p.node_of(6), 2);  // second pass starts
}

TEST(Placement, RolesRejectsTinyClusters) {
  auto spec = ClusterSpec::homogeneous(NodeType::e800(), 2,
                                       net::Interconnect::kMyrinet,
                                       Compiler::kGcc);
  EXPECT_THROW(Placement::roles(spec, 1), std::invalid_argument);
}

TEST(RankRates, ContentionOnlyWhenSharing) {
  auto spec = ClusterSpec::homogeneous(NodeType::e800(), 2,
                                       net::Interconnect::kMyrinet,
                                       Compiler::kGcc);
  Placement p;
  p.node_of_rank = {0, 1, 1};
  const auto rates = rank_rates(spec, p, /*smp_contention=*/0.9);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);        // alone on a dual node
  EXPECT_DOUBLE_EQ(rates[1], 0.9);        // two on two cpus: SMP factor
  EXPECT_DOUBLE_EQ(rates[2], 0.9);
}

TEST(RankRates, SlotSharingWhenOversubscribed) {
  auto spec = ClusterSpec::homogeneous(NodeType::generic(1.0, 1), 1,
                                       net::Interconnect::kMyrinet,
                                       Compiler::kGcc);
  Placement p;
  p.node_of_rank = {0, 0};
  const auto rates = rank_rates(spec, p, 0.9);
  EXPECT_DOUBLE_EQ(rates[0], 0.45);  // half a cpu times contention
}

TEST(CostModel, SortCostIsNLogN) {
  const CostModel cm;
  EXPECT_DOUBLE_EQ(cm.sort_s(0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(cm.sort_s(1, 1.0), 0.0);
  const double s1k = cm.sort_s(1024, 1.0);
  EXPECT_NEAR(s1k, cm.sort_cost * 1024 * 10, 1e-12);
  // Slower rank pays proportionally more.
  EXPECT_NEAR(cm.sort_s(1024, 0.5), 2 * s1k, 1e-12);
}

TEST(CostModel, ComputeScalesInverseRate) {
  const CostModel cm;
  EXPECT_DOUBLE_EQ(cm.compute_s(100e-9, 1000, 1.0), 100e-6);
  EXPECT_DOUBLE_EQ(cm.compute_s(100e-9, 1000, 0.5), 200e-6);
}

TEST(LinkCostFn, LoopbackForColocatedRanks) {
  auto spec = ClusterSpec::homogeneous(NodeType::e800(), 2,
                                       net::Interconnect::kMyrinet,
                                       Compiler::kGcc);
  Placement p;
  p.node_of_rank = {0, 0, 1};
  const CostModel cm;
  const auto fn = make_link_cost_fn(spec, p, cm);
  const auto colocated = fn(0, 1, 1000);
  const auto remote = fn(0, 2, 1000);
  EXPECT_LT(colocated.wire_s, remote.wire_s);
  EXPECT_LT(colocated.send_cpu_s, remote.send_cpu_s);
}

TEST(LinkCostFn, SlowRankPaysMoreHostOverhead) {
  ClusterSpec spec;
  spec.preferred = net::Interconnect::kFastEthernet;
  spec.compiler = Compiler::kGcc;
  spec.add(NodeType::e800());
  spec.add(NodeType::e60());
  Placement p;
  p.node_of_rank = {0, 1};
  const CostModel cm;
  const auto fn = make_link_cost_fn(spec, p, cm);
  const auto c = fn(0, 1, 1000);
  // E60 (rate 0.55) pays ~1.8x the E800's CPU overhead on receive.
  EXPECT_NEAR(c.recv_cpu_s / c.send_cpu_s, 1.0 / 0.55, 1e-9);
}

TEST(LinkCostFn, ItaniumPairFallsBackToEthernet) {
  ClusterSpec spec;
  spec.preferred = net::Interconnect::kMyrinet;
  spec.compiler = Compiler::kIcc;
  spec.add(NodeType::e800());
  spec.add(NodeType::zx2000());
  Placement p;
  p.node_of_rank = {0, 1};
  const CostModel cm;
  const auto fn = make_link_cost_fn(spec, p, cm);
  // Wire time must reflect Fast-Ethernet, not Myrinet, despite preference.
  const auto c = fn(0, 1, 1 << 20);
  EXPECT_GT(c.wire_s, net::LinkModel::myrinet().cost_s(1 << 20) * 5);
}

TEST(LinkCostFn, PlatformPricesRoutesButColocatedRanksStayLoopback) {
  auto spec = ClusterSpec::homogeneous(NodeType::e800(), 2,
                                       net::Interconnect::kMyrinet,
                                       Compiler::kGcc);
  Placement p;
  p.node_of_rank = {0, 0, 1};
  const CostModel cm;
  platform::Link host;
  host.kind = net::Interconnect::kFastEthernet;
  host.latency_s = 1e-4;
  host.bandwidth_bps = 1e7;
  const auto plat = platform::Platform::crossbar(2, host);
  const auto flat_fn = make_link_cost_fn(spec, p, cm);
  const auto plat_fn = make_link_cost_fn(spec, p, cm, &plat);
  // One route: same-node pairs are loopback with or without a platform.
  const auto flat_local = flat_fn(0, 1, 1000);
  const auto plat_local = plat_fn(0, 1, 1000);
  EXPECT_EQ(plat_local.wire_s, flat_local.wire_s);
  EXPECT_EQ(plat_local.send_cpu_s, flat_local.send_cpu_s);
  EXPECT_EQ(plat_local.recv_cpu_s, flat_local.recv_cpu_s);
  // Cross-node pairs follow the platform's links, not the NIC sets.
  const auto remote = plat_fn(0, 2, 1000);
  EXPECT_EQ(remote.wire_s, 2e-4 + 1000.0 / 1e7);
  EXPECT_DOUBLE_EQ(
      remote.send_cpu_s,
      (cm.host_overhead_s(net::Interconnect::kFastEthernet) +
       1000.0 / cm.host_bandwidth_bps(net::Interconnect::kFastEthernet)) /
          rank_rates(spec, p, cm.smp_contention)[0]);
}

}  // namespace
}  // namespace psanim::cluster
