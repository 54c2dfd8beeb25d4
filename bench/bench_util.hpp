#pragma once

// Shared plumbing for the experiment benches: command-line scale flags,
// paper-vs-measured table assembly, and the farm benches' report gate.
//
// Every table bench runs a reduced workload by default so the whole bench
// directory finishes in minutes on a laptop; pass --full for the paper's
// 8 x 400,000-particle scale, --frames/--particles/--systems to override.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "farm/farm.hpp"
#include "sim/report.hpp"
#include "sim/run_config.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "trace/table.hpp"

namespace psanim::bench {

struct BenchArgs {
  sim::ScenarioParams scenario;
  bool full = false;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    a.scenario.systems = 8;
    a.scenario.particles_per_system = 8'000;
    a.scenario.frames = 30;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> long {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(2);
        }
        return std::strtol(argv[++i], nullptr, 10);
      };
      if (arg == "--full") {
        a.full = true;
        a.scenario.particles_per_system = 400'000;
        a.scenario.frames = 60;
      } else if (arg == "--particles") {
        a.scenario.particles_per_system = static_cast<std::size_t>(value());
      } else if (arg == "--frames") {
        a.scenario.frames = static_cast<std::uint32_t>(value());
      } else if (arg == "--systems") {
        a.scenario.systems = static_cast<std::size_t>(value());
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "usage: %s [--full] [--particles N] [--frames N] [--systems N]\n",
            argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return a;
  }

  core::SimSettings settings() const {
    core::SimSettings s;
    s.frames = scenario.frames;
    s.dt = scenario.dt;
    return s;
  }

  void print_header(const char* title) const {
    std::printf("=== %s ===\n", title);
    std::printf(
        "workload: %zu systems x %zu particles (steady), %u frames%s\n\n",
        scenario.systems, scenario.particles_per_system, scenario.frames,
        full ? " [--full paper scale]" : " [reduced scale; --full for paper]");
  }
};

/// Homogeneous E800 row of Tables 1/3: `nodes` E800s running `procs`
/// calculators over Myrinet with GCC, sequential baseline E800+GCC.
inline sim::RunConfig e800_row(int nodes, int procs, core::SpaceMode space,
                               core::LbMode lb) {
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), nodes, procs}};
  cfg.network = net::Interconnect::kMyrinet;
  cfg.compiler = cluster::Compiler::kGcc;
  cfg.space = space;
  cfg.lb = lb;
  cfg.baseline_node = cluster::NodeType::e800();
  return cfg;
}

/// Gate on a drained farm run: all `jobs` done and none failed, the queue
/// depth never negative, and the exact-sample SLO percentiles sane — wait
/// non-negative and monotone (p50 <= p95 <= p99), p99 turnaround covering
/// p99 wait, slowdown monotone and at least 1 (no job beats its own
/// contention-free run). Prints each violation under `tag`; returns how
/// many there were.
inline int check_farm_report(const std::string& tag, const farm::Report& r,
                             std::size_t jobs) {
  int violations = 0;
  const auto violation = [&](const char* what) {
    std::fprintf(stderr, "VIOLATION %s: %s\n", tag.c_str(), what);
    ++violations;
  };
  if (r.jobs_done != jobs || r.jobs_failed != 0) {
    violation("not every job completed");
  }
  for (const auto& [t, depth] : r.queue_depth) {
    if (depth < 0) violation("negative queue depth");
  }
  const double w50 = r.wait_q.quantile(0.5);
  const double w95 = r.wait_q.quantile(0.95);
  const double w99 = r.wait_q.quantile(0.99);
  const double s50 = r.slowdown_q.quantile(0.5);
  const double s99 = r.slowdown_q.quantile(0.99);
  if (!(0.0 <= w50 && w50 <= w95 && w95 <= w99)) {
    violation("wait percentiles not monotone and non-negative");
  }
  if (r.turnaround_q.quantile(0.99) < w99) {
    violation("p99 turnaround below p99 wait");
  }
  if (!(s50 <= s99) || s50 < 1.0 - 1e-9) {
    violation("slowdown percentiles not monotone or below 1");
  }
  return violations;
}

/// Print a completed table plus the shape notes a reader should check.
inline void print_table(const trace::Table& t) {
  std::fputs(t.str().c_str(), stdout);
  std::fputs("\n", stdout);
}

}  // namespace psanim::bench
