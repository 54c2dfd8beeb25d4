// psanim_perf: run one benchmark workload and print its raw measurements.
//
//   psanim_perf --workload <snow_fs_dlb|fountain_is_dlb|farm_stream>
//               --seed N --seconds S --tmp-dir DIR [--min-passes K]
//
// One warm-up pass, then untraced passes until S seconds have passed (at
// least K), then one traced pass with the layer decorators and probes on.
// Every pass is set up afresh (setup is timed apart from the pass). The
// last line of stdout is one JSON document; perfbench/run.py turns it into
// the benchmark's metrics and checks the outputs.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "mp/buffer_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string tmp_dir = ".";
  int min_passes = 3;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--tmp-dir") {
      a.tmp_dir = v;
    } else if (arg == "--min-passes") {
      a.min_passes = std::stoi(v);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double tv_s(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

rusage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double cpu_s(const rusage& ru) { return tv_s(ru.ru_utime) + tv_s(ru.ru_stime); }

Fields build_info() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  return {
      {"build_type", json_str(PERF_BUILD_TYPE)},
      {"compiler", json_str(PERF_COMPILER)},
      {"optimized", optimized ? "true" : "false"},
      {"sanitized", sanitized ? "true" : "false"},
      {"nproc", json_uint(std::thread::hardware_concurrency())},
  };
}

/// One timed pass: wall and process CPU around Workload::run. A pass that
/// throws is recorded as not ok; the checker counts it as failed.
struct Timed {
  Fields fields;
  bool ok = false;
};

Timed timed_pass(Workload& w, bool traced) {
  const double c0 = cpu_s(usage());
  const auto t0 = std::chrono::steady_clock::now();
  PassOutput out;
  std::string error;
  try {
    out = w.run(traced);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double wall = seconds_since(t0);
  const double cpu = cpu_s(usage()) - c0;
  return {{
              {"wall_s", json_num(wall)},
              {"cpu_s", json_num(cpu)},
              {"ok", error.empty() ? "true" : "false"},
              {"error", json_str(error)},
              {"attempted", json_uint(out.attempted)},
              {"failed", json_uint(out.failed)},
              {"jobs", json_uint(out.jobs)},
              {"fingerprint", json_object(out.fingerprint)},
          },
          error.empty()};
}

/// Host CPU time of one setup (single-threaded work, so equal to its wall
/// time on an idle machine but not inflated by other tenants). A sim's
/// setup takes microseconds, so it is repeated for 20 ms and the mean is
/// taken; the farm's takes tens of milliseconds and runs once.
double timed_setup(Workload& w) {
  const double c0 = cpu_s(usage());
  const auto t0 = std::chrono::steady_clock::now();
  int n = 0;
  do {
    w.setup(false);
    ++n;
  } while (seconds_since(t0) < 0.02);
  return (cpu_s(usage()) - c0) / n;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out + "]";
}

/// The traced pass's own host counters and BufferPool deltas.
void host_layers(Fields& f, const rusage& ru0, const rusage& ru1,
                 const psanim::mp::BufferPool::Stats& p0,
                 const psanim::mp::BufferPool::Stats& p1) {
  const auto acquires = p1.acquires - p0.acquires;
  f.emplace_back("mp.buffer_heap_allocs", json_uint(p1.misses - p0.misses));
  f.emplace_back("mp.buffer_pool_hit_ratio",
                 json_num(acquires ? static_cast<double>(p1.hits - p0.hits) /
                                         static_cast<double>(acquires)
                                   : 0.0));
  f.emplace_back("host.sys_s",
                 json_num(tv_s(ru1.ru_stime) - tv_s(ru0.ru_stime)));
  f.emplace_back("host.ctx_switches",
                 json_uint(static_cast<std::uint64_t>(
                     (ru1.ru_nvcsw - ru0.ru_nvcsw) +
                     (ru1.ru_nivcsw - ru0.ru_nivcsw))));
}

/// The whole run; returns the JSON document.
std::string run(const Args& args, Workload& w) {
  const double span_overhead_ns = measure_span_overhead_ns();

  std::vector<std::string> setups;
  setups.push_back(json_num(timed_setup(w)));
  const Timed warmup = timed_pass(w, false);
  // Peak RSS of one cold setup + pass: later passes only add allocator
  // retention, which would make the figure depend on how many passes fit
  // in the run.
  const double peak_rss_mb = static_cast<double>(usage().ru_maxrss) / 1024.0;

  std::vector<std::string> passes;
  const auto start = std::chrono::steady_clock::now();
  while (static_cast<int>(passes.size()) < args.min_passes ||
         seconds_since(start) < args.seconds) {
    setups.push_back(json_num(timed_setup(w)));
    passes.push_back(json_object(timed_pass(w, false).fields));
  }

  // The traced pass: decorators, probes and obs tracing on. Host counters
  // and pool stats cover its run() alone.
  const double ts0 = cpu_s(usage());
  w.setup(true);
  const double traced_setup_s = cpu_s(usage()) - ts0;
  const auto pool0 = psanim::mp::BufferPool::global().stats();
  const rusage ru0 = usage();
  Timed traced = timed_pass(w, true);
  const rusage ru1 = usage();
  const auto pool1 = psanim::mp::BufferPool::global().stats();
  Oracle oracle;
  Fields layers;
  if (traced.ok) {
    try {
      layers = w.layers(span_overhead_ns, oracle);
    } catch (const std::exception& e) {
      oracle = {false, std::string("layer probes failed: ") + e.what()};
    }
    host_layers(layers, ru0, ru1, pool0, pool1);
  }
  Fields& t = traced.fields;
  t.emplace_back("setup_s", json_num(traced_setup_s));
  t.emplace_back("particle_updates", json_uint(w.particle_updates()));
  t.emplace_back("layers", json_object(layers));
  t.emplace_back("oracle", json_object({{"ok", oracle.ok ? "true" : "false"},
                                        {"detail", json_str(oracle.detail)}}));

  return json_object({
      {"workload", json_str(args.workload)},
      {"seed", json_uint(args.seed)},
      {"build", json_object(build_info())},
      {"span_overhead_ns", json_num(span_overhead_ns)},
      {"setup_s", json_array(setups)},
      {"warmup", json_object(warmup.fields)},
      {"passes", json_array(passes)},
      {"peak_rss_mb", json_num(peak_rss_mb)},
      {"traced", json_object(t)},
  });
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::unique_ptr<Workload> w;
  try {
    args = parse(argc, argv);
    w = make_workload(args.workload, args.seed, args.tmp_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psanim_perf: %s\n", e.what());
    return 2;
  }
  try {
    std::printf("%s\n", run(args, *w).c_str());
  } catch (const std::exception& e) {
    // A setup that throws (an admission the farm refuses, say) leaves no
    // pass to measure.
    std::fprintf(stderr, "psanim_perf: %s\n", e.what());
    return 1;
  }
  return 0;
}
