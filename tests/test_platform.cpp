// psanim::platform suite: zone-tree routing per topology, the fabric's
// deterministic bandwidth-sharing arithmetic (exact doubles), the storage
// model, the description loader (round-trip + rejection of malformed
// descriptions), run_parallel and Farm rejection of dangling platform
// names — and the integration properties: a zone platform named by the
// cluster spec changes makespans but never pixels, topologies separate
// measurably and deterministically, both execution cores agree
// bit-for-bit, crash-restart under a disk-costed vault stays bit-identical
// to the fault-free run, and a farm's shared spec carries its platform to
// every job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "farm/farm.hpp"
#include "mp/runtime.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "platform/disk.hpp"
#include "platform/fabric.hpp"
#include "platform/parse.hpp"
#include "platform/platform.hpp"
#include "render/compare.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using core::Scene;
using core::SimSettings;
using platform::Link;
using platform::Platform;

Link link(double latency_s, double bandwidth_bps, bool shared = true) {
  Link l;
  l.latency_s = latency_s;
  l.bandwidth_bps = bandwidth_bps;
  l.shared = shared;
  return l;
}

std::vector<std::string> route_names(const Platform& p, std::size_t a,
                                     std::size_t b) {
  std::vector<std::string> out;
  for (const auto id : p.route(a, b)) out.push_back(p.link(id).name);
  return out;
}

// --- zone routing ------------------------------------------------------

TEST(PlatformRoute, CrossbarPairsCrossBothHostLinks) {
  const auto p = Platform::crossbar(4, link(1e-4, 1e8));
  EXPECT_TRUE(p.route(2, 2).empty());
  EXPECT_EQ(route_names(p, 0, 3), (std::vector<std::string>{"host0", "host3"}));
  EXPECT_EQ(route_names(p, 3, 0), (std::vector<std::string>{"host3", "host0"}));
}

TEST(PlatformRoute, CrossbarBackplaneSitsBetweenHosts) {
  const auto p = Platform::crossbar(4, link(1e-4, 1e8), /*backplane_bps=*/5e7);
  EXPECT_EQ(route_names(p, 1, 2),
            (std::vector<std::string>{"host1", "xbar", "host2"}));
}

TEST(PlatformRoute, FatTreeStaysUnderTheEdgeSwitchWhenItCan) {
  // 6 hosts, 2 per edge, 2 uplinks: edges {0,1} {2,3} {4,5}.
  const auto p =
      Platform::fat_tree(6, 2, 2, link(1e-4, 1e8), link(5e-5, 1e9));
  EXPECT_EQ(route_names(p, 0, 1), (std::vector<std::string>{"host0", "host1"}));
  // Cross-edge: uplink chosen by local index % uplinks, deterministic.
  EXPECT_EQ(route_names(p, 0, 3),
            (std::vector<std::string>{"host0", "edge0.up0", "edge1.up1",
                                      "host3"}));
  EXPECT_EQ(route_names(p, 5, 2),
            (std::vector<std::string>{"host5", "edge2.up1", "edge1.up0",
                                      "host2"}));
}

TEST(PlatformRoute, DragonflyMinimalRouting) {
  // 2 groups x 2 routers x 2 hosts: nodes 0..3 in group 0, 4..7 in 1.
  const auto p = Platform::dragonfly(8, 2, 2, 2, link(1e-4, 1e8),
                                     link(2e-5, 1e9), link(1e-4, 1e9));
  // Same router: terminal links only.
  EXPECT_EQ(route_names(p, 0, 1), (std::vector<std::string>{"term0", "term1"}));
  // Same group, different router: both locals, no global hop.
  EXPECT_EQ(route_names(p, 0, 2),
            (std::vector<std::string>{"term0", "local.g0.r0", "local.g0.r1",
                                      "term2"}));
  // Cross group: exactly one global hop on the pair link.
  EXPECT_EQ(route_names(p, 1, 7),
            (std::vector<std::string>{"term1", "local.g0.r0", "global.g0-g1",
                                      "local.g1.r1", "term7"}));
}

TEST(PlatformRoute, WanRoutesIntraSiteLocallyAndCrossSiteOverUplinks) {
  std::vector<Platform> sites;
  sites.push_back(Platform::crossbar(2, link(1e-4, 1e8)));
  sites.push_back(Platform::crossbar(3, link(1e-4, 1e8)));
  const auto p = Platform::wan(std::move(sites), link(3e-2, 2.5e6));
  ASSERT_EQ(p.node_count(), 5u);
  // Intra-site traffic never leaves the site.
  EXPECT_EQ(route_names(p, 3, 4),
            (std::vector<std::string>{"site1.host1", "site1.host2"}));
  // Cross-site: egress, both WAN uplinks, ingress.
  EXPECT_EQ(route_names(p, 1, 2),
            (std::vector<std::string>{"site0.host1", "site0.wan", "site1.wan",
                                      "site1.host0"}));
}

TEST(PlatformRoute, RejectsNodesOutsideThePlatform) {
  const auto p = Platform::crossbar(3, link(1e-4, 1e8));
  EXPECT_THROW((void)p.route(0, 3), std::out_of_range);
  EXPECT_THROW((void)p.route(7, 0), std::out_of_range);
}

TEST(PlatformWire, LatencyAddsBandwidthBottlenecks) {
  const auto p = Platform::crossbar(3, link(1e-4, 1e8), /*backplane_bps=*/5e7);
  const auto w = p.wire(0, 2);
  EXPECT_DOUBLE_EQ(w.latency_s, 2e-4);  // backplane adds no port latency
  EXPECT_DOUBLE_EQ(w.bottleneck_bps, 5e7);
}

TEST(PlatformBuilders, RejectImpossibleShapes) {
  EXPECT_THROW(Platform::crossbar(0, link(0, 1e8)), std::invalid_argument);
  EXPECT_THROW(Platform::fat_tree(4, 0, 1, link(0, 1e8), link(0, 1e9)),
               std::invalid_argument);
  // Capacity 2*1*1 = 2 < 8 nodes.
  EXPECT_THROW(
      Platform::dragonfly(8, 2, 1, 1, link(0, 1e8), link(0, 1e9), link(0, 1e9)),
      std::invalid_argument);
  EXPECT_THROW(Platform::wan({}, link(0, 1e8)), std::invalid_argument);
}

// --- fabric: bandwidth-sharing arithmetic ------------------------------

TEST(Fabric, EgressSerializesASendersOwnTransfers) {
  const auto p = Platform::crossbar(3, link(1e-4, 1e8));
  platform::Fabric f(p, {0, 1, 2});
  const std::size_t bytes = 1'000'000;
  const double hold = static_cast<double>(bytes) / 1e8;
  // First transfer enters the wire immediately; the second queues behind
  // it on rank 0's host uplink for exactly one hold time.
  EXPECT_EQ(f.on_send(0, 1, bytes, 0.0), 0.0);
  EXPECT_EQ(f.on_send(0, 2, bytes, 0.0), hold);
  EXPECT_EQ(f.on_send(0, 1, bytes, 0.0), 2.0 * hold);
  // A later departure past the backlog pays nothing.
  EXPECT_EQ(f.on_send(0, 2, bytes, 10.0), 0.0);
  EXPECT_EQ(f.egress_wait_s(0), 3.0 * hold);
}

TEST(Fabric, IngressQueuesConcurrentArrivalsOnTheSharedHostLink) {
  const auto p = Platform::crossbar(3, link(1e-4, 1e8));
  platform::Fabric f(p, {0, 1, 2});
  const std::size_t bytes = 500'000;
  const double hold = static_cast<double>(bytes) / 1e8;
  // Two senders' transfers reach rank 0's host link at the same virtual
  // instant: the first holds the link, the second waits exactly one hold
  // (computed in ledger arithmetic: busy-until minus arrival).
  const double t = 2.0;
  const double queued = (t + hold) - t;
  EXPECT_EQ(f.on_recv(1, 0, bytes, t), 0.0);
  EXPECT_EQ(f.on_recv(2, 0, bytes, t), queued);
  EXPECT_EQ(f.ingress_wait_s(0), queued);
}

TEST(Fabric, NonSharedLinksNeverQueue) {
  const auto p = Platform::crossbar(3, link(1e-4, 1e8, /*shared=*/false));
  platform::Fabric f(p, {0, 1, 2});
  EXPECT_EQ(f.on_send(0, 1, 1'000'000, 0.0), 0.0);
  EXPECT_EQ(f.on_send(0, 2, 1'000'000, 0.0), 0.0);
  EXPECT_EQ(f.on_recv(1, 0, 1'000'000, 0.0), 0.0);
  EXPECT_EQ(f.on_recv(2, 0, 1'000'000, 0.0), 0.0);
}

TEST(Fabric, SameNodeTrafficIsLoopback) {
  const auto p = Platform::crossbar(2, link(1e-4, 1e8));
  platform::Fabric f(p, {0, 0, 1});  // ranks 0 and 1 share node 0
  EXPECT_EQ(f.on_send(0, 1, 1'000'000, 0.0), 0.0);
  EXPECT_EQ(f.on_recv(0, 1, 1'000'000, 0.0), 0.0);
}

TEST(Fabric, RejectsPlacementOutsideThePlatform) {
  const auto p = Platform::crossbar(2, link(1e-4, 1e8));
  EXPECT_THROW(platform::Fabric(p, {0, 1, 2}), std::invalid_argument);
}

// --- disk model --------------------------------------------------------

TEST(DiskModel, ChargesSeekPlusBandwidth) {
  const platform::DiskModel d{100.0, 50.0, 0.5};
  EXPECT_EQ(d.read_s(1000), 0.5 + 1000.0 / 100.0);
  EXPECT_EQ(d.write_s(1000), 0.5 + 1000.0 / 50.0);
}

TEST(DiskModel, DefaultIsFreeLikeThePrePlatformVault) {
  const platform::DiskModel d;
  EXPECT_TRUE(d.free());
  EXPECT_EQ(d.read_s(1 << 20), 0.0);
  EXPECT_EQ(d.write_s(1 << 20), 0.0);
}

TEST(DiskModel, PfsStripesMultiplyBandwidthNotSeek) {
  const auto one = platform::DiskModel::scratch_hdd();
  const auto four = platform::DiskModel::pfs(4);
  EXPECT_EQ(four.read_bps, one.read_bps * 4.0);
  EXPECT_EQ(four.write_bps, one.write_bps * 4.0);
  EXPECT_EQ(four.seek_s, one.seek_s);
}

// --- parse -------------------------------------------------------------

TEST(PlatformParse, FlatIsSpecialAndNeverParsed) {
  EXPECT_TRUE(platform::is_flat(""));
  EXPECT_TRUE(platform::is_flat("flat"));
  EXPECT_FALSE(platform::is_flat("crossbar"));
  EXPECT_THROW((void)platform::parse("flat", 4), std::invalid_argument);
}

TEST(PlatformParse, PresetsAutoSizeToTheRequestedNodes) {
  for (const auto& name : platform::preset_names()) {
    const auto p = platform::parse(name, 9);
    EXPECT_EQ(p.node_count(), 9u) << name;
    EXPECT_EQ(p.name, name);
  }
}

TEST(PlatformParse, DslConfiguresTopologyAndDisk) {
  const auto p = platform::parse(
      "fattree:hosts_per_edge=2,uplinks=1,bw=5e7,up_bw=2e8;disk:scratch", 6);
  EXPECT_EQ(p.node_count(), 6u);
  EXPECT_EQ(p.root.hosts_per_edge, 2u);
  EXPECT_EQ(p.root.uplinks, 1u);
  EXPECT_EQ(p.link(p.root.host_links[0]).bandwidth_bps, 5e7);
  EXPECT_EQ(p.link(p.root.up_links[0]).bandwidth_bps, 2e8);
  EXPECT_EQ(p.disk.read_bps, platform::DiskModel::scratch_hdd().read_bps);

  const auto bp = platform::parse("crossbar:backplane=5e7", 4);
  ASSERT_NE(bp.root.backplane, platform::kNoLink);
  EXPECT_EQ(bp.link(bp.root.backplane).bandwidth_bps, 5e7);

  const auto w = platform::parse("wan:sites=3,wan_latency=0.05", 7);
  EXPECT_EQ(w.node_count(), 7u);
  ASSERT_EQ(w.root.children.size(), 3u);
  EXPECT_EQ(w.link(w.root.children[0].wan_uplink).latency_s, 0.05);
}

TEST(PlatformParse, DescribeRoundTripsForEveryPreset) {
  for (const auto& name : platform::preset_names()) {
    const auto p = platform::parse(name, 9);
    const std::string json = p.describe();
    const auto q = platform::parse(json, 9);
    EXPECT_EQ(q.describe(), json) << name;
    EXPECT_EQ(q.node_count(), p.node_count()) << name;
  }
  // A disk survives the round trip too.
  const auto p = platform::parse("crossbar;disk:nfs", 4);
  const auto q = platform::parse(p.describe(), 4);
  EXPECT_EQ(q.disk.read_bps, platform::DiskModel::nfs().read_bps);
  EXPECT_EQ(q.describe(), p.describe());
}

TEST(PlatformParse, RejectsMalformedDescriptionsActionably) {
  // A typo'd preset lists the valid names.
  try {
    (void)platform::parse("fatttree", 8);
    FAIL() << "unknown platform must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fattree-slim"), std::string::npos);
  }
  EXPECT_THROW((void)platform::parse("crossbar:bogus=1", 4),
               std::invalid_argument);
  EXPECT_THROW((void)platform::parse("crossbar:bw=abc", 4),
               std::invalid_argument);
  EXPECT_THROW((void)platform::parse("dragonfly:groups=1,routers=1,"
                                     "hosts_per_router=1", 8),
               std::invalid_argument);
  EXPECT_THROW((void)platform::parse("wan2", 1), std::invalid_argument);
  EXPECT_THROW((void)platform::parse("wan:sites=9", 4), std::invalid_argument);
  EXPECT_THROW((void)platform::parse("{\"name\":", 4), std::invalid_argument);
  EXPECT_THROW((void)platform::parse("{\"name\":\"x\"}", 4),
               std::invalid_argument);
  // A JSON platform smaller than the cluster it must host is rejected.
  const auto small = platform::parse("crossbar", 2).describe();
  EXPECT_THROW((void)platform::parse(small, 8), std::invalid_argument);
}

// --- integration: platforms change time, never pixels ------------------

Scene small_scene() {
  sim::ScenarioParams p;
  p.systems = 2;
  p.particles_per_system = 500;
  p.frames = 6;
  return sim::make_snow_scene(p);
}

SimSettings small_settings() {
  SimSettings s;
  s.frames = 6;
  s.ncalc = 6;
  s.image_width = 64;
  s.image_height = 48;
  s.phase_timeout_s = 10.0;
  return s;
}

core::ParallelResult run(const Scene& scene, const SimSettings& settings,
                         const std::string& plat = "",
                         mp::ExecMode exec_mode = mp::ExecMode::kDefault) {
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), settings.ncalc, settings.ncalc}};
  cfg.network = net::Interconnect::kMyrinet;
  cfg.platform = plat;
  const auto built = sim::build_cluster(cfg);
  return core::run_parallel(scene, settings, built.spec, built.placement, {},
                            mp::RuntimeOptions{.recv_timeout_s = 15.0,
                                               .exec_mode = exec_mode});
}

bool same_image(const render::Framebuffer& a, const render::Framebuffer& b) {
  return a.colors().size() == b.colors().size() &&
         std::memcmp(a.colors().data(), b.colors().data(),
                     a.colors().size() * sizeof(render::Color)) == 0;
}

TEST(PlatformIntegration, ZonePlatformsShiftMakespansButNotPixels) {
  const Scene scene = small_scene();
  SimSettings settings = small_settings();
  const auto flat = run(scene, settings);
  const auto contended = run(scene, settings, "crossbar");

  // Message content never depends on delivery time, so the animation is
  // pixel-identical — only the clocks moved.
  ASSERT_TRUE(contended.final_frame.width() > 0);
  EXPECT_TRUE(same_image(flat.final_frame, contended.final_frame));
  EXPECT_NE(flat.animation_s, contended.animation_s);
}

TEST(PlatformIntegration, TopologiesSeparateMeasurablyAndDeterministically) {
  const Scene scene = small_scene();
  const SimSettings settings = small_settings();

  const std::string xbar_desc = "crossbar:link=fast-ethernet";
  const auto xbar = run(scene, settings, xbar_desc);
  const auto xbar2 = run(scene, settings, xbar_desc);
  // Bit-identical reproduction under contention.
  EXPECT_EQ(xbar.animation_s, xbar2.animation_s);

  // Squeeze cross-edge traffic through one slim shared uplink per pair of
  // hosts: same hosts, same scene, measurably slower.
  const auto slim = run(scene, settings,
                        "fattree:hosts_per_edge=2,uplinks=1,link=fast-ethernet,"
                        "up_bw=11e6,up_latency=7e-5");
  EXPECT_GT(slim.animation_s, xbar.animation_s);
  EXPECT_TRUE(same_image(slim.final_frame, xbar.final_frame));

  // A WAN partition pays long-haul latency on every cross-site message.
  const auto wan = run(scene, settings, "wan:sites=2,link=fast-ethernet");
  EXPECT_GT(wan.animation_s, xbar.animation_s);
}

TEST(PlatformIntegration, CriticalPathChargesTheWanSlowdownToTheWire) {
  // Traced flat and two-site WAN runs through obs::analyze: the critical
  // path tiles the whole trace makespan (which the calculators' post-frame
  // bookkeeping keeps at or past the animation finish), the wire share is
  // a fraction, and the slower fabric shows up as a larger wire share
  // rather than as unexplained compute.
  const Scene scene = small_scene();
  const auto traced = [&](const std::string& plat) {
    SimSettings settings = small_settings();
    obs::Trace trace;
    settings.obs.trace = &trace;
    const auto r = run(scene, settings, plat);
    const obs::CriticalPath cp = obs::analyze(trace).critical_path;
    const double tol = 1e-9 * std::max(1.0, cp.makespan_s);
    EXPECT_NEAR(cp.compute_s + cp.wire_s, cp.makespan_s, tol) << plat;
    EXPECT_GE(cp.makespan_s, r.animation_s - tol) << plat;
    EXPECT_GE(cp.wire_share(), 0.0) << plat;
    EXPECT_LE(cp.wire_share(), 1.0) << plat;
    return cp.wire_share();
  };
  EXPECT_LT(traced(""), traced("wan:sites=2,link=fast-ethernet"));
}

TEST(PlatformIntegration, ExecutionCoresAgreeUnderContention) {
  const Scene scene = small_scene();
  const SimSettings settings = small_settings();
  const std::string plat = "fattree:hosts_per_edge=2,uplinks=1,up_bw=11e6";
  const auto fibers = run(scene, settings, plat, mp::ExecMode::kFibers);
  const auto threads = run(scene, settings, plat, mp::ExecMode::kThreads);
  EXPECT_EQ(fibers.animation_s, threads.animation_s);
  EXPECT_TRUE(same_image(fibers.final_frame, threads.final_frame));
  ASSERT_EQ(fibers.procs.size(), threads.procs.size());
  for (std::size_t r = 0; r < fibers.procs.size(); ++r) {
    EXPECT_EQ(fibers.procs[r].finish_time, threads.procs[r].finish_time)
        << "rank " << r;
  }
}

TEST(PlatformIntegration, DiskCostedVaultChargesCheckpointIo) {
  const Scene scene = small_scene();
  SimSettings settings = small_settings();
  settings.ckpt.interval = 2;
  const auto free_disk = run(scene, settings, "crossbar");
  const auto costed = run(scene, settings, "crossbar;disk:nfs");
  // Same pixels, strictly more virtual time: every snapshot now pays
  // seek + bytes/bandwidth on its owning rank.
  EXPECT_TRUE(same_image(free_disk.final_frame, costed.final_frame));
  EXPECT_GT(costed.animation_s, free_disk.animation_s);
}

TEST(PlatformChaos, CrashRestartUnderDiskCostedVaultStaysBitIdentical) {
  const Scene scene = small_scene();
  SimSettings settings = small_settings();
  settings.ncalc = 3;
  settings.ckpt.interval = 2;
  const std::string plat = "crossbar;disk:scratch";
  const auto clean = run(scene, settings, plat);

  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 5}};
  const auto recovered = run(scene, settings, plat);

  ASSERT_EQ(recovered.telemetry.image_frames().size(), settings.frames);
  EXPECT_TRUE(same_image(recovered.final_frame, clean.final_frame));
  EXPECT_EQ(recovered.fault_stats.restart_recoveries, 1u);
  EXPECT_EQ(
      recovered.procs[static_cast<std::size_t>(core::calc_rank(1))].restarts,
      1u);
  // Replay + restore I/O cost time.
  EXPECT_GT(recovered.animation_s, clean.animation_s);
}

TEST(PlatformSpec, RunParallelAndFarmRejectDanglingPlatformNames) {
  const auto expect_names_typo = [](const std::function<void()>& f) {
    try {
      f();
      FAIL() << "dangling platform name must throw";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("platform"), std::string::npos) << msg;
      EXPECT_NE(msg.find("fatttree"), std::string::npos) << msg;
    }
  };
  const Scene scene = small_scene();
  SimSettings settings = small_settings();
  settings.frames = 1;
  expect_names_typo([&] { (void)run(scene, settings, "fatttree"); });
  EXPECT_NO_THROW((void)run(scene, settings, "crossbar"));
  EXPECT_NO_THROW((void)run(scene, settings, ""));

  auto shared = cluster::ClusterSpec::homogeneous(
      cluster::NodeType::e800(), 4, net::Interconnect::kFastEthernet,
      cluster::Compiler::kGcc);
  shared.platform = "fatttree";  // typo
  expect_names_typo([&] { farm::Farm f(shared); });
  shared.platform = "crossbar";
  EXPECT_NO_THROW(farm::Farm f(shared));
  shared.platform.clear();
  EXPECT_NO_THROW(farm::Farm f(shared));
}

TEST(PlatformFarm, FarmWidePlatformDefaultAppliesToJobs) {
  SimSettings settings = small_settings();
  settings.ncalc = 2;
  const auto job = [&] {
    return farm::JobSpec{.name = "job", .scene = small_scene(),
                         .settings = settings};
  };

  const auto run_farm = [&](const std::string& plat) {
    auto shared = cluster::ClusterSpec::homogeneous(
        cluster::NodeType::e800(), 4, net::Interconnect::kFastEthernet,
        cluster::Compiler::kGcc);
    shared.platform = plat;
    farm::FarmOptions opt;
    opt.recv_timeout_s = 15.0;
    farm::Farm f(shared, opt);
    auto h = f.submit(job());
    f.run();
    return h.await();
  };

  const auto flat = run_farm("");
  const auto contended = run_farm("crossbar");
  ASSERT_EQ(flat.state, farm::JobState::kDone) << flat.error;
  ASSERT_EQ(contended.state, farm::JobState::kDone) << contended.error;
  // The shared spec's platform reaches the job: it stretches the job's
  // virtual makespan but not its output.
  EXPECT_EQ(contended.assignment.sub_spec.platform, "crossbar");
  EXPECT_EQ(flat.fb_hash, contended.fb_hash);
  EXPECT_NE(flat.standalone_makespan_s, contended.standalone_makespan_s);

  // The recorded assignment alone reproduces the platform job.
  const auto oracle = farm::standalone_run(job(), contended.assignment);
  EXPECT_EQ(render::hash_framebuffer(oracle.final_frame), contended.fb_hash);
  EXPECT_EQ(oracle.animation_s, contended.standalone_makespan_s);
}

}  // namespace
}  // namespace psanim
