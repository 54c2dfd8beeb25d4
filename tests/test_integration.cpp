// Integration tests: the full Fig. 2 protocol running end to end on the
// emulated cluster. The headline properties:
//
//  * particle conservation — the union of all calculators' particles
//    equals the sequential run's, for ANY calculator count (the fountain
//    workload is deterministic across decompositions);
//  * the final image matches the sequential render;
//  * every particle ends inside its owner's domain every frame;
//  * virtual time is bit-reproducible run to run;
//  * dynamic balancing fixes the infinite-space pathology;
//  * the protocol events of Figure 2 appear in order.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <tuple>

#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "mp/collectives.hpp"
#include "mp/message.hpp"
#include "mp/runtime.hpp"
#include "obs/trace.hpp"
#include "render/compare.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using core::Scene;
using core::SimSettings;

/// A small fountain scene: fully deterministic across calculator counts
/// (no per-calculator RNG streams in its action list).
Scene small_scene(std::size_t systems = 2, std::size_t particles = 1500,
                  std::uint32_t frames = 12) {
  sim::ScenarioParams p;
  p.systems = systems;
  p.particles_per_system = particles;
  p.frames = frames;
  return sim::make_fountain_scene(p);
}

SimSettings small_settings(std::uint32_t frames = 12) {
  SimSettings s;
  s.frames = frames;
  s.image_width = 96;
  s.image_height = 72;
  return s;
}

struct Built {
  cluster::ClusterSpec spec;
  cluster::Placement placement;
};

Built homogeneous_cluster(int ncalc) {
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), std::min(ncalc, 8), ncalc}};
  cfg.network = net::Interconnect::kMyrinet;
  cfg.compiler = cluster::Compiler::kGcc;
  const auto built = sim::build_cluster(cfg);
  return {built.spec, built.placement};
}

core::ParallelResult run(const Scene& scene, SimSettings settings, int ncalc,
                         core::SpaceMode space = core::SpaceMode::kFinite,
                         core::LbMode lb = core::LbMode::kDynamicPairwise) {
  settings.ncalc = ncalc;
  settings.space = space;
  settings.lb = lb;
  const auto built = homogeneous_cluster(ncalc);
  // A deadlocked protocol phase should fail this suite in seconds, not
  // ride the 60 s library default into the CTest timeout.
  return core::run_parallel(scene, settings, built.spec, built.placement,
                            {}, mp::RuntimeOptions{.recv_timeout_s = 15.0});
}

/// Canonical multiset fingerprint of a population: sorted position triples.
std::vector<float> sorted_positions(std::vector<psys::Particle> ps) {
  std::vector<float> keys;
  keys.reserve(ps.size() * 3);
  std::sort(ps.begin(), ps.end(), [](const auto& a, const auto& b) {
    return std::tie(a.pos.x, a.pos.y, a.pos.z) <
           std::tie(b.pos.x, b.pos.y, b.pos.z);
  });
  for (const auto& p : ps) {
    keys.push_back(p.pos.x);
    keys.push_back(p.pos.y);
    keys.push_back(p.pos.z);
  }
  return keys;
}

class ConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConservationTest, PopulationMatchesSequentialExactly) {
  const int ncalc = GetParam();
  const Scene scene = small_scene();
  const SimSettings settings = small_settings();

  const auto seq = core::run_sequential(scene, settings, 1.0);
  const auto par = run(scene, settings, ncalc);

  // The union of the calculators' particles is EXACTLY the sequential
  // population, per system, as bitwise-sorted position multisets — the
  // decomposition and exchange machinery moved particles around but never
  // created, lost or perturbed one.
  ASSERT_EQ(par.final_particles.size(), seq.populations.size());
  for (std::size_t s = 0; s < seq.populations.size(); ++s) {
    const auto expect = sorted_positions(seq.populations[s]);
    const auto got = sorted_positions(par.final_particles[s]);
    ASSERT_EQ(got.size(), expect.size()) << "system " << s;
    EXPECT_EQ(got, expect) << "system " << s << " ncalc=" << ncalc;
  }
}

INSTANTIATE_TEST_SUITE_P(CalcCounts, ConservationTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(Integration, FinalImageMatchesSequential) {
  const Scene scene = small_scene();
  const SimSettings settings = small_settings();
  const auto seq = core::run_sequential(scene, settings, 1.0);
  for (const int ncalc : {1, 4}) {
    const auto par = run(scene, settings, ncalc);
    const auto diff = render::compare(seq.final_frame, par.final_frame);
    ASSERT_TRUE(diff.same_dims);
    // Additive splats of the same particle multiset: equal up to float
    // summation order and the wire's 8-bit color quantization. Dense
    // pixels stack hundreds of splats, so per-splat quantization error
    // accumulates — PSNR and mean error are the right yardsticks.
    EXPECT_LT(diff.mean_abs, 0.01) << "ncalc=" << ncalc;
    EXPECT_GT(diff.psnr_db, 30.0) << "ncalc=" << ncalc;
  }
}

TEST(Integration, SequentialEqualsOneCalculatorState) {
  const Scene scene = small_scene();
  const SimSettings settings = small_settings();
  const auto seq = core::run_sequential(scene, settings, 1.0);
  const auto par = run(scene, settings, 1);
  // One calculator, same stores, same streams: the particle STATE is
  // bitwise identical (the images differ only by the wire's 8-bit color
  // quantization, amplified by additive stacking).
  ASSERT_EQ(par.final_particles.size(), seq.populations.size());
  for (std::size_t s = 0; s < seq.populations.size(); ++s) {
    EXPECT_EQ(sorted_positions(par.final_particles[s]),
              sorted_positions(seq.populations[s]));
  }
  const auto diff = render::compare(seq.final_frame, par.final_frame);
  EXPECT_GT(diff.psnr_db, 30.0);
}

TEST(Integration, VirtualTimeIsReproducible) {
  const Scene scene = small_scene();
  const SimSettings settings = small_settings();
  const auto a = run(scene, settings, 4);
  const auto b = run(scene, settings, 4);
  EXPECT_DOUBLE_EQ(a.animation_s, b.animation_s);
  for (std::size_t r = 0; r < a.procs.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.procs[r].finish_time, b.procs[r].finish_time);
    EXPECT_EQ(a.procs[r].traffic.bytes_sent, b.procs[r].traffic.bytes_sent);
  }
}

TEST(Integration, DlbFixesInfiniteSpacePathology) {
  const Scene scene = small_scene(/*systems=*/2, /*particles=*/3000);
  const SimSettings settings = small_settings(/*frames=*/20);
  const auto slb = run(scene, settings, 4, core::SpaceMode::kInfinite,
                       core::LbMode::kStatic);
  const auto dlb = run(scene, settings, 4, core::SpaceMode::kInfinite,
                       core::LbMode::kDynamicPairwise);
  EXPECT_LT(dlb.animation_s, slb.animation_s * 0.75);
  EXPECT_GT(dlb.telemetry.total_balance_orders(), 0u);
  // And the balancer actually drove imbalance down by the end.
  const auto series = dlb.telemetry.imbalance_series();
  ASSERT_GT(series.size(), 10u);
  EXPECT_LT(series.back(), series.front());
}

TEST(Integration, StaticLbIssuesNoOrders) {
  const Scene scene = small_scene();
  const auto r = run(scene, small_settings(), 4, core::SpaceMode::kFinite,
                     core::LbMode::kStatic);
  EXPECT_EQ(r.telemetry.total_balance_orders(), 0u);
}

TEST(Integration, DomainOwnershipInvariant) {
  // After every frame each calculator's particles lie inside its domain:
  // the exchange did its job. We verify at the end via final decomps and
  // a fresh run that samples positions through telemetry counts — here we
  // check the boundary bookkeeping: every crosser sent was received.
  const Scene scene = small_scene();
  const auto r = run(scene, small_settings(), 4);
  std::map<std::uint32_t, std::size_t> sent, received;
  for (const auto& c : r.telemetry.calc_frames()) {
    sent[c.frame] += c.crossers_out;
    received[c.frame] += c.crossers_in;
  }
  for (const auto& [frame, out] : sent) {
    EXPECT_EQ(out, received[frame]) << "frame " << frame;
  }
}

TEST(Integration, DiffusionPolicyRunsEndToEnd) {
  const Scene scene = small_scene();
  const auto r = run(scene, small_settings(), 4, core::SpaceMode::kInfinite,
                     core::LbMode::kDiffusion);
  EXPECT_GT(r.telemetry.total_balance_orders(), 0u);
  EXPECT_GT(r.animation_s, 0.0);
}

TEST(Integration, SortLastMatchesGatherImage) {
  const Scene scene = small_scene();
  SimSettings settings = small_settings();
  const auto gather = run(scene, settings, 3);
  settings.imgen = core::ImageGenMode::kSortLast;
  settings.ncalc = 3;
  settings.space = core::SpaceMode::kFinite;
  settings.lb = core::LbMode::kDynamicPairwise;
  const auto built = homogeneous_cluster(3);
  const auto sl = core::run_parallel(scene, settings, built.spec,
                                     built.placement);
  const auto diff = render::compare(gather.final_frame, sl.final_frame);
  ASSERT_TRUE(diff.same_dims);
  // Sort-last skips the 8-bit vertex quantization the gather path uses,
  // so the difference is exactly that quantization (accumulated over
  // stacked splats).
  EXPECT_LT(diff.mean_abs, 0.01);
  EXPECT_GT(diff.psnr_db, 30.0);
}

TEST(Integration, PerSystemCombineConservesParticles) {
  // The §3.3 per-system exchange form must produce the same particle
  // state as the bundled form — only the message pattern differs.
  const Scene scene = small_scene();
  SimSettings settings = small_settings();
  const auto seq = core::run_sequential(scene, settings, 1.0);
  settings.combine = core::SystemCombine::kPerSystem;
  settings.ncalc = 4;
  settings.lb = core::LbMode::kDynamicPairwise;
  const auto built = homogeneous_cluster(4);
  const auto par = core::run_parallel(scene, settings, built.spec,
                                      built.placement);
  ASSERT_EQ(par.final_particles.size(), seq.populations.size());
  for (std::size_t s = 0; s < seq.populations.size(); ++s) {
    EXPECT_EQ(sorted_positions(par.final_particles[s]),
              sorted_positions(seq.populations[s]));
  }
}

TEST(Integration, PerSystemCombineCostsMoreMessages) {
  const Scene scene = small_scene(/*systems=*/4);
  SimSettings settings = small_settings();
  const auto bundled = run(scene, settings, 4);
  settings.combine = core::SystemCombine::kPerSystem;
  settings.ncalc = 4;
  settings.space = core::SpaceMode::kFinite;
  settings.lb = core::LbMode::kDynamicPairwise;
  const auto built = homogeneous_cluster(4);
  const auto per_system = core::run_parallel(scene, settings, built.spec,
                                             built.placement);
  std::uint64_t bundled_msgs = 0, split_msgs = 0;
  for (const auto& p : bundled.procs) bundled_msgs += p.traffic.msgs_sent;
  for (const auto& p : per_system.procs) split_msgs += p.traffic.msgs_sent;
  EXPECT_GT(split_msgs, bundled_msgs);
}

TEST(Integration, PairCollisionsRunAndCharge) {
  Scene scene = small_scene(1, 800, 8);
  SimSettings settings = small_settings(8);
  settings.pair_collisions = true;
  settings.collision_radius = 0.1f;
  settings.ncalc = 3;
  const auto built = homogeneous_cluster(3);
  const auto r = core::run_parallel(scene, settings, built.spec,
                                    built.placement);
  EXPECT_GT(r.animation_s, 0.0);
}

TEST(Integration, SpanStreamReproducesFigure2Order) {
  const Scene scene = small_scene(1, 600, 4);
  SimSettings settings = small_settings(4);
  obs::Trace trace;
  settings.obs.trace = &trace;
  settings.ncalc = 2;
  const auto built = homogeneous_cluster(2);
  core::run_parallel(scene, settings, built.spec, built.placement);

  // For each frame and calculator: creation-received < calculus <
  // exchange < report < frame-to-imgen < balance-done; and the image
  // completes after at least one calculator shipped its particles.
  for (std::uint32_t frame = 0; frame < 4; ++frame) {
    std::map<int, std::vector<std::string>> per_rank;
    double image_done = -1;
    double first_ship = 1e30;
    for (int rank = 0; rank < trace.world_size(); ++rank) {
      for (const auto& rec : trace.rank(rank).records()) {
        if (rec.kind != obs::RecordKind::kInstant || rec.frame != frame) {
          continue;
        }
        const std::string label = trace.labels().name(rec.label);
        per_rank[rank].push_back(label);
        if (label.find("image generation complete") != std::string::npos) {
          image_done = rec.begin_v;
        }
        if (label.find("sent to image generator") != std::string::npos) {
          first_ship = std::min(first_ship, rec.begin_v);
        }
      }
    }
    EXPECT_GE(image_done, first_ship) << "frame " << frame;
    for (int c = 0; c < settings.ncalc; ++c) {
      EXPECT_EQ(per_rank.count(core::calc_rank(c)), 1u) << "calc " << c;
    }
    for (const auto& [rank, labels] : per_rank) {
      if (rank < core::kFirstCalcRank) continue;
      const std::vector<std::string> expected{
          "calculator: addition to local set",
          "calculator: calculus done",
          "calculator: particle exchange done",
          "calculator: load information sent",
          "calculator: particles sent to image generator",
          "calculator: load balance done, local domains defined",
      };
      EXPECT_EQ(labels, expected) << "rank " << rank << " frame " << frame;
    }
  }
}

TEST(Integration, FasterNodesFinishSooner) {
  // Heterogeneous 1+1: the slow calculator's compute seconds exceed the
  // fast one's under static balancing (same particle count, half rate) —
  // and under DLB the counts shift instead.
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), 1, 1},
                {cluster::NodeType::e60(), 1, 1}};
  cfg.network = net::Interconnect::kMyrinet;
  cfg.compiler = cluster::Compiler::kGcc;
  const auto built = sim::build_cluster(cfg);
  const Scene scene = small_scene(1, 2000, 16);
  SimSettings settings = small_settings(16);
  settings.ncalc = built.ncalc;
  settings.lb = core::LbMode::kDynamicPairwise;
  const auto r = core::run_parallel(scene, settings, built.spec,
                                    built.placement);
  std::size_t fast_held = 0, slow_held = 0;
  for (const auto& c : r.telemetry.calc_frames()) {
    if (c.frame + 1 != settings.frames) continue;
    if (c.rank == core::calc_rank(0)) fast_held = c.particles_held;
    if (c.rank == core::calc_rank(1)) slow_held = c.particles_held;
  }
  // The E800 (rate 1.0) should end up holding more than the E60 (0.55).
  EXPECT_GT(fast_held, slow_held);
}

TEST(Integration, ImageGeneratorWritesFrames) {
  const Scene scene = small_scene(1, 400, 4);
  SimSettings settings = small_settings(4);
  settings.frame_dir = ::testing::TempDir();
  settings.write_every = 2;
  settings.ncalc = 2;
  const auto built = homogeneous_cluster(2);
  core::run_parallel(scene, settings, built.spec, built.placement);
  // Frames 0 and 2 were written as valid PPMs.
  for (const int f : {0, 2}) {
    std::ifstream in(settings.frame_dir + "/frame_" + std::to_string(f) +
                         ".ppm",
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "frame " << f;
    std::string magic;
    in >> magic;
    EXPECT_EQ(magic, "P6");
  }
}

// --- fiber core at scale: 1000-rank collectives ---

// All-to-all data movement at a scale the thread-per-rank core refuses:
// every rank contributes its rank id, allgather hands everyone the whole
// table, and an allreduce cross-checks the sum — repeated across worker
// counts, which must not perturb a single virtual-time bit.
TEST(Integration, ThousandRankCollectivesMatchAcrossWorkerCounts) {
  constexpr int kWorld = 1000;
  auto cost = [](int, int, std::size_t bytes) {
    return mp::MsgCost{.send_cpu_s = 5e-7,
                       .wire_s = 2e-6 + static_cast<double>(bytes) * 1e-9,
                       .recv_cpu_s = 1e-6};
  };
  const double expect_sum = kWorld * (kWorld - 1) / 2.0;

  std::vector<std::vector<mp::ProcessResult>> runs;
  for (const int workers : {1, 2, 8}) {
    mp::Runtime rt(kWorld, cost,
                   mp::RuntimeOptions{.exec_mode = mp::ExecMode::kFibers,
                                      .workers = workers});
    runs.push_back(rt.run([&](mp::Endpoint& ep) {
      mp::barrier(ep);
      mp::Writer w;
      w.put<std::int32_t>(ep.rank());
      const auto table = mp::allgather(ep, w.take());
      ASSERT_EQ(static_cast<int>(table.size()), kWorld);
      for (int i = 0; i < kWorld; ++i) {
        mp::Reader r{std::span<const std::byte>(
            table[static_cast<std::size_t>(i)])};
        ASSERT_EQ(r.get<std::int32_t>(), i);
      }
      const double sum =
          mp::allreduce_sum(ep, static_cast<double>(ep.rank()));
      EXPECT_EQ(sum, expect_sum);
    }));
  }

  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[0].size(), runs[v].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      const auto& a = runs[0][i];
      const auto& b = runs[v][i];
      EXPECT_EQ(a.finish_time, b.finish_time) << "rank " << a.rank;
      EXPECT_EQ(a.compute_s, b.compute_s) << "rank " << a.rank;
      EXPECT_EQ(a.comm_s, b.comm_s) << "rank " << a.rank;
      EXPECT_EQ(a.traffic.msgs_sent, b.traffic.msgs_sent);
      EXPECT_EQ(a.traffic.bytes_sent, b.traffic.bytes_sent);
      EXPECT_EQ(a.traffic.msgs_recv, b.traffic.msgs_recv);
      EXPECT_EQ(a.traffic.bytes_recv, b.traffic.bytes_recv);
    }
  }
}

}  // namespace
}  // namespace psanim
