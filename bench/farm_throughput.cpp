// farm_throughput: FIFO vs SJF over a jobs x nodes sweep on the shared
// virtual cluster.
//
// Every scenario runs the identical job mix under both policies; all
// reported times are *virtual* (farm DES time), so the numbers are
// bit-reproducible across hosts and runs. Each policy row prints the
// makespan and flow time plus the scheduler SLO distribution from
// farm::Report — exact-sample p50/p99 wait and p99 slowdown. The headline
// scenario ("hetero_strand") is the case where queue discipline changes
// makespan on a heterogeneous cluster: FIFO dispatches the long job
// immediately — onto the slow node, the only one free — while SJF keeps it
// queued behind the shorts and it lands on the fast node, cutting the farm
// makespan.
//
// The binary is a fast-tier ctest (perf.farm_throughput) and exits
// non-zero on any violation of:
//   - every run: all jobs done, none failed, SLO percentiles sane
//     (bench::check_farm_report);
//   - gated scenarios: SJF's makespan does not exceed FIFO's, and SJF's
//     p99 wait stays inside the FIFO schedule's makespan (SJF may delay
//     the long job — that is the trade — but never past the whole
//     schedule it beat).
//
// Usage: farm_throughput [--full] [--verbose]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "cluster/cluster_spec.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"
#include "sim/scenario.hpp"

using namespace psanim;

namespace {

struct JobShape {
  std::string name;
  std::string scene;  // "snow" | "fountain"
  int ncalc;
  std::uint32_t frames;
  std::uint64_t seed;
};

struct Scenario {
  std::string name;
  cluster::ClusterSpec spec;
  std::vector<JobShape> jobs;
  bool gated = false;  ///< SJF makespan and p99-wait bounds enforced here
};

struct PolicyOut {
  double makespan_s = 0.0;
  double total_flow_s = 0.0;
  // Exact-sample SLO percentiles over completed jobs (farm::Report).
  double wait_p50 = 0.0, wait_p99 = 0.0;
  double slowdown_p99 = 0.0;
  int violations = 0;
};

farm::JobSpec make_job(const JobShape& shape, std::size_t scale_particles) {
  sim::ScenarioParams p;
  p.systems = 2;
  p.particles_per_system = scale_particles;
  p.frames = shape.frames;
  farm::JobSpec j;
  j.name = shape.name;
  j.scene = shape.scene == "snow" ? sim::make_snow_scene(p)
                                  : sim::make_fountain_scene(p);
  j.settings.ncalc = shape.ncalc;
  j.settings.frames = shape.frames;
  j.settings.seed = shape.seed;
  j.settings.image_width = 64;
  j.settings.image_height = 48;
  return j;
}

PolicyOut run_policy(const Scenario& sc, farm::Policy policy,
                     std::size_t scale_particles, bool verbose) {
  farm::FarmOptions opts;
  opts.policy = policy;
  opts.recv_timeout_s = 60.0;
  farm::Farm f(sc.spec, opts);
  std::vector<farm::JobHandle> handles;
  for (const auto& shape : sc.jobs) {
    handles.push_back(f.submit(make_job(shape, scale_particles)));
  }
  const farm::Report r = f.run();
  if (verbose) {
    for (auto& h : handles) {
      const auto& jr = h.await();
      std::printf("    [%s] %-8s start=%.6f finish=%.6f own=%.6f "
                  "stretch=%.4f nodes=",
                  to_string(policy).c_str(), h.name().c_str(), jr.start_s,
                  jr.finish_s, jr.standalone_makespan_s, jr.stretch);
      for (std::size_t k = 0; k < jr.assignment.shared_nodes.size(); ++k) {
        std::printf("%d:%d ", jr.assignment.shared_nodes[k],
                    jr.assignment.ranks_per_node[k]);
      }
      std::printf("\n");
    }
  }
  PolicyOut out;
  out.makespan_s = r.makespan_s;
  out.total_flow_s = r.total_flow_s;
  out.wait_p50 = r.wait_q.quantile(0.5);
  out.wait_p99 = r.wait_q.quantile(0.99);
  out.slowdown_p99 = r.slowdown_q.quantile(0.99);
  out.violations = bench::check_farm_report(
      sc.name + " " + to_string(policy), r, sc.jobs.size());
  return out;
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> out;

  // The headline: one fast quad + one half-speed quad. Submit order is
  // adversarial for FIFO: a short job grabs the fast node at t=0, so the
  // long job is dispatched onto the slow node — doubling its service time,
  // and its finish IS the makespan. SJF ranks the long job last; by the
  // time the short queue drains the slow node is mid-short and the fast
  // node frees next, so the long job inherits the fast node. Enough shorts
  // are needed to cover the long job's wait — with too few, the slow node
  // frees first and work-conserving backfill strands the long job there
  // under SJF too (tried: 3 shorts lose, 5 win).
  {
    Scenario sc;
    sc.name = "hetero_strand";
    sc.spec.add(cluster::NodeType::generic(1.0, 4));
    sc.spec.add(cluster::NodeType::generic(0.5, 4));
    sc.jobs = {
        {"short0", "snow", 2, 4, 0xB0},
        {"long0", "fountain", 2, 36, 0xB1},
        {"short1", "snow", 2, 4, 0xB2},
        {"short2", "fountain", 2, 4, 0xB3},
        {"short3", "snow", 2, 4, 0xB4},
        {"short4", "fountain", 2, 4, 0xB5},
    };
    sc.gated = true;
    out.push_back(std::move(sc));
  }

  // Serial bottleneck: one quad node, jobs run one at a time. Work
  // conservation makes the makespans equal; SJF's win is flow time.
  {
    Scenario sc;
    sc.name = "serial_quad";
    sc.spec.add(cluster::NodeType::generic(1.0, 4));
    sc.jobs = {
        {"long0", "fountain", 2, 16, 0xC0},
        {"short0", "snow", 2, 4, 0xC1},
        {"short1", "snow", 2, 4, 0xC2},
        {"short2", "fountain", 2, 6, 0xC3},
    };
    sc.gated = true;
    out.push_back(std::move(sc));
  }

  // Wider mix: 6 heterogeneous nodes, 10 jobs of mixed widths/lengths,
  // several waves deep — exercises backfill, placement and the SMP
  // contention stretch together.
  {
    Scenario sc;
    sc.name = "mixed_cluster";
    sc.spec.add(cluster::NodeType::generic(1.0, 4), 2);
    sc.spec.add(cluster::NodeType::generic(0.7, 2), 2);
    sc.spec.add(cluster::NodeType::generic(0.5, 2), 2);
    for (int i = 0; i < 10; ++i) {
      sc.jobs.push_back({"mix" + std::to_string(i),
                         i % 2 ? "fountain" : "snow", 1 + (i % 2),
                         static_cast<std::uint32_t>(4 + 4 * (i % 3)),
                         0xD0 + static_cast<std::uint64_t>(i)});
    }
    out.push_back(std::move(sc));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--verbose") == 0) verbose = true;
  }
  const std::size_t scale_particles = full ? 20'000 : 600;

  int violations = 0;
  for (const auto& sc : make_scenarios()) {
    const PolicyOut fifo =
        run_policy(sc, farm::Policy::kFifo, scale_particles, verbose);
    const PolicyOut sjf =
        run_policy(sc, farm::Policy::kSjf, scale_particles, verbose);
    violations += fifo.violations + sjf.violations;
    int slots = 0;
    for (const auto& n : sc.spec.nodes) slots += n.cpus;

    std::printf("%-14s nodes=%zu slots=%d jobs=%zu | fifo makespan=%.6f "
                "flow=%.6f | sjf makespan=%.6f flow=%.6f\n",
                sc.name.c_str(), sc.spec.node_count(), slots, sc.jobs.size(),
                fifo.makespan_s, fifo.total_flow_s, sjf.makespan_s,
                sjf.total_flow_s);
    std::printf("%-14s wait p50/p99 slowdown p99 | fifo %.6f/%.6f %.4f | "
                "sjf %.6f/%.6f %.4f\n",
                "", fifo.wait_p50, fifo.wait_p99, fifo.slowdown_p99,
                sjf.wait_p50, sjf.wait_p99, sjf.slowdown_p99);

    if (!sc.gated) continue;
    if (sjf.makespan_s > fifo.makespan_s + 1e-12) {
      std::fprintf(stderr,
                   "VIOLATION %s: sjf makespan %.17g > fifo %.17g\n",
                   sc.name.c_str(), sjf.makespan_s, fifo.makespan_s);
      ++violations;
    }
    if (sjf.wait_p99 > fifo.makespan_s + 1e-12) {
      std::fprintf(stderr,
                   "VIOLATION %s: sjf p99 wait %.17g exceeds the fifo "
                   "makespan %.17g\n",
                   sc.name.c_str(), sjf.wait_p99, fifo.makespan_s);
      ++violations;
    }
  }
  return violations == 0 ? 0 : 1;
}
