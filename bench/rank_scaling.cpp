// Rank-count scaling of the execution cores (EXPERIMENTS.md "Execution
// core scaling"): wall-clock cost of driving W-rank worlds through a
// fixed message-passing workload (a two-lap accumulating ring plus one
// allgather), for the fiber scheduler at several worker counts and the
// thread-per-rank oracle where it still applies (W <= 256). The virtual
// makespan column shows that scheduling is a wall-clock knob, never a
// result knob (FiberScale.ThousandRankRingIdenticalAcrossWorkerCounts and
// determinism.exec_mode_parity gate that).
//
// Then the platform-topology sweep (EXPERIMENTS.md "Platform models"):
// flat vs crossbar/fat-tree/dragonfly/WAN on a fixed snow workload, each
// leg traced and fed through obs::analysis for its critical-path wire
// share. The sweep's properties are gated by test_platform's
// PlatformIntegration suite; this binary only measures.
//
// Usage: rank_scaling [--laps N]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/simulation.hpp"
#include "mp/collectives.hpp"
#include "mp/communicator.hpp"
#include "mp/message.hpp"
#include "mp/runtime.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "render/compare.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace psanim;

struct Measured {
  double wall_ms = 0.0;
  double makespan_s = 0.0;  ///< max virtual finish over ranks
};

Measured run_world(int world, mp::ExecMode mode, int workers, int laps) {
  auto cost = [](int, int, std::size_t bytes) {
    return mp::MsgCost{.send_cpu_s = 1e-6,
                       .wire_s = 1e-5 + static_cast<double>(bytes) * 1e-9,
                       .recv_cpu_s = 2e-6};
  };
  mp::Runtime rt(world, cost,
                 mp::RuntimeOptions{.exec_mode = mode, .workers = workers});
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = rt.run([world, laps](mp::Endpoint& ep) {
    const int rank = ep.rank();
    const int right = (rank + 1) % world;
    const int left = (rank + world - 1) % world;
    for (int lap = 0; lap < laps; ++lap) {
      if (rank == 0) {
        mp::Writer w;
        w.put<std::uint64_t>(1);
        ep.send(right, 1, std::move(w));
        ep.recv(left, 1);
      } else {
        const mp::Message m = ep.recv(left, 1);
        mp::Reader r(m);
        mp::Writer w;
        w.put<std::uint64_t>(r.get<std::uint64_t>() + 1);
        ep.send(right, 1, std::move(w));
      }
    }
    mp::Writer w;
    w.put<std::int32_t>(rank);
    mp::allgather(ep, w.take());
  });
  const auto t1 = std::chrono::steady_clock::now();

  Measured m;
  m.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const auto& r : results) {
    if (r.finish_time > m.makespan_s) m.makespan_s = r.finish_time;
  }
  return m;
}

/// One leg of the platform sweep: the fixed snow workload on 8 E800
/// calculators over Fast-Ethernet, under `platform` (empty = flat). Each
/// leg is traced and fed through obs::analysis, so the sweep reports not
/// just *that* a topology is slower but *where* the extra time sits on
/// the critical path (compute vs wire).
struct SweepLeg {
  double makespan_s = 0.0;  ///< animation_s — image-generator finish
  std::uint64_t fb_hash = 0;
  double cp_wire_share = 0.0;
};

SweepLeg run_platform_leg(const std::string& platform) {
  sim::ScenarioParams p;
  p.systems = 4;
  p.particles_per_system = 3'000;
  p.frames = 10;
  const core::Scene scene = sim::make_snow_scene(p);

  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), 8, 8}};
  cfg.network = net::Interconnect::kFastEthernet;
  cfg.platform = platform;
  const auto built = sim::build_cluster(cfg);

  obs::Trace trace;
  core::SimSettings settings;
  settings.frames = p.frames;
  settings.ncalc = built.ncalc;
  settings.image_width = 64;
  settings.image_height = 48;
  settings.obs.trace = &trace;
  const auto r =
      core::run_parallel(scene, settings, built.spec, built.placement, {},
                         mp::RuntimeOptions{.recv_timeout_s = 60.0});

  const obs::Analysis analysis = obs::analyze(trace);
  SweepLeg leg;
  leg.makespan_s = r.animation_s;
  leg.fb_hash = render::hash_framebuffer(r.final_frame);
  leg.cp_wire_share = analysis.critical_path.wire_share();
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  int laps = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--laps") == 0 && i + 1 < argc) {
      laps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--laps N]\n", argv[0]);
      return 2;
    }
  }

  std::printf("# execution-core scaling: ring x%d + allgather\n", laps);
  std::printf("%6s  %-16s  %10s  %18s\n", "world", "core", "wall_ms",
              "virtual_makespan_s");
  for (const int world : {64, 256, 512, 1000}) {
    const auto emit = [&](const char* label, const Measured& m) {
      std::printf("%6d  %-16s  %10.2f  %18.9f\n", world, label, m.wall_ms,
                  m.makespan_s);
    };
    for (const int workers : {1, 2, 8}) {
      const std::string label = "fibers/w" + std::to_string(workers);
      emit(label.c_str(),
           run_world(world, mp::ExecMode::kFibers, workers, laps));
    }
    if (world <= mp::Runtime::kMaxThreadRanks) {
      emit("threads", run_world(world, mp::ExecMode::kThreads, 0, laps));
    } else {
      std::printf("%6d  %-16s  %10s  %18s\n", world, "threads", "refused",
                  "-");
    }
  }

  // Platform-topology sweep: same scene on the flat model and on each zone
  // platform. Delivery times never change content, so every leg renders
  // the flat leg's pixels; the zone platforms pay host links and shared
  // uplinks, and the critical path attributes that to the wire.
  std::printf("\n# platform sweep: snow 4x3000 x10f, 8*E800, fast-ethernet\n");
  std::printf("%-14s  %18s  %16s  %10s\n", "platform", "virtual_makespan_s",
              "fb_hash", "wire_share");
  for (const std::string plat :
       {"", "crossbar", "fattree", "fattree-slim", "dragonfly", "wan2"}) {
    const SweepLeg leg = run_platform_leg(plat);
    std::printf("%-14s  %18.9f  %016llx  %9.1f%%\n",
                plat.empty() ? "flat" : plat.c_str(), leg.makespan_s,
                static_cast<unsigned long long>(leg.fb_hash),
                100.0 * leg.cp_wire_share);
  }
  return 0;
}
