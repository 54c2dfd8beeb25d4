#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "core/simulation.hpp"
#include "farm/farm.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "render/compare.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace core = psanim::core;
namespace farm = psanim::farm;
namespace sim = psanim::sim;

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_uint(std::uint64_t v) { return std::to_string(v); }

std::string json_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_object(const Fields& f) {
  std::string out = "{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i) out += ", ";
    out += json_str(f[i].first) + ": " + f[i].second;
  }
  return out + "}";
}

namespace {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// FNV-1a over raw bytes: the farm's per-job outputs in one exact digest.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (const unsigned char c : b) h = (h ^ c) * 0x100000001b3ull;
  }
};

std::uint64_t particle_updates_of(const core::ParallelResult& r) {
  std::uint64_t n = 0;
  for (const auto& f : r.telemetry.image_frames()) n += f.particles_rendered;
  return n;
}

/// Exact counts the per-layer probes are multiplied by, plus the lb and mp
/// counts the telemetry carries whether or not obs tracing was on.
struct Counts {
  std::uint64_t rendered = 0, gather_bytes = 0, crossers = 0,
                exchange_bytes = 0, lb_moved = 0, lb_pairs = 0, messages = 0,
                wire_bytes = 0;
  double imbalance_max = 0.0;

  void add(const core::ParallelResult& r) {
    rendered += particle_updates_of(r);
    for (const auto& f : r.telemetry.image_frames()) {
      gather_bytes += f.gather_bytes;
    }
    for (const auto& c : r.telemetry.calc_frames()) {
      crossers += c.crossers_out;
      exchange_bytes += c.exchange_bytes;
      lb_moved += c.balance_sent;
    }
    for (const auto& m : r.telemetry.manager_frames()) {
      lb_pairs += m.pairs_evaluated;
      imbalance_max = std::max(imbalance_max, m.imbalance);
    }
    for (const auto& p : r.procs) {
      messages += p.traffic.msgs_sent;
      wire_bytes += p.traffic.bytes_sent;
    }
  }

  void emit(Fields& f) const {
    f.emplace_back("render.particles_rendered", json_uint(rendered));
    f.emplace_back("core.gather_bytes", json_uint(gather_bytes));
    f.emplace_back("core.crossers", json_uint(crossers));
    f.emplace_back("core.exchange_bytes", json_uint(exchange_bytes));
    f.emplace_back("mp.messages", json_uint(messages));
    f.emplace_back("mp.wire_bytes", json_uint(wire_bytes));
  }
};

void emit_psys(Fields& f, const PsysTallies& t, double oh) {
  const Tally* actions[] = {&t.random_accel, &t.bounce, &t.gravity,
                            &t.damping,      &t.kill_old, &t.move,
                            &t.other};
  double actions_s = 0.0;
  std::uint64_t updates = 0;
  for (const Tally* a : actions) {
    actions_s += a->seconds(oh);
    updates += a->items.load();
  }
  f.emplace_back("psys.actions_s", json_num(actions_s));
  f.emplace_back("psys.random_accel_s", json_num(t.random_accel.seconds(oh)));
  f.emplace_back("psys.bounce_s", json_num(t.bounce.seconds(oh)));
  f.emplace_back("psys.gravity_s", json_num(t.gravity.seconds(oh)));
  f.emplace_back("psys.damping_s", json_num(t.damping.seconds(oh)));
  f.emplace_back("psys.kill_old_s", json_num(t.kill_old.seconds(oh)));
  f.emplace_back("psys.move_s", json_num(t.move.seconds(oh)));
  f.emplace_back("psys.particle_updates", json_uint(updates));
  f.emplace_back("psys.create_s",
                 json_num(t.position_domain.seconds(oh) +
                          t.velocity_domain.seconds(oh)));
  f.emplace_back("psys.particles_created",
                 json_uint(t.position_domain.calls.load()));
  f.emplace_back("psys.domain_calls",
                 json_uint(t.position_domain.calls.load() +
                           t.velocity_domain.calls.load()));
}

void emit_rates(Fields& f, const ProbeRates& r) {
  f.emplace_back("core.frame_vertex_ns_per_particle",
                 json_num(r.frame_vertex_ns));
  f.emplace_back("core.exchange_codec_ns_per_particle",
                 json_num(r.exchange_codec_ns));
  f.emplace_back("psys.store_snapshot_ns_per_particle",
                 json_num(r.snapshot_ns));
  f.emplace_back("render.splat_ns_per_particle", json_num(r.splat_ns));
}

constexpr int kProbeReps = 5;

// ---------------------------------------------------------------------------
// snow_fs_dlb / fountain_is_dlb: one §5 animation on 8 E800 calculators.

class SimWorkload final : public Workload {
 public:
  SimWorkload(bool snow, std::uint64_t seed) : snow_(snow), seed_(seed) {
    // Reduced §5 scale: 8 systems x 40k steady particles, 40 frames.
    params_.systems = 8;
    params_.particles_per_system = 40'000;
    params_.frames = 40;
    cfg_.groups = {{psanim::cluster::NodeType::e800(), 8, 8}};
    cfg_.network = psanim::net::Interconnect::kMyrinet;
    cfg_.compiler = psanim::cluster::Compiler::kGcc;
    cfg_.space = snow ? core::SpaceMode::kFinite : core::SpaceMode::kInfinite;
    cfg_.lb = core::LbMode::kDynamicPairwise;
    cfg_.baseline_node = psanim::cluster::NodeType::e800();
  }

  void setup(bool traced) override {
    traced_scene_.reset();  // refers into scene_
    scene_ = snow_ ? sim::make_snow_scene(params_)
                   : sim::make_fountain_scene(params_);
    built_ = sim::build_cluster(cfg_);
    settings_ = core::SimSettings{};
    settings_.frames = params_.frames;
    settings_.dt = params_.dt;
    settings_.seed = seed_;
    settings_.ncalc = built_.ncalc;
    settings_.space = cfg_.space;
    settings_.lb = cfg_.lb;
    if (traced) {
      tallies_ = std::make_unique<PsysTallies>();
      traced_scene_ = instrument(scene_, *tallies_);
    }
  }

  PassOutput run(bool traced) override {
    core::SimSettings s = settings_;
    psanim::obs::Trace trace;
    if (traced) {
      s.obs.trace = &trace;
      s.obs.analysis = true;
    }
    // Load shape: two fiber workers, whatever PSANIM_EXEC_MODE says.
    psanim::mp::RuntimeOptions rt;
    rt.exec_mode = psanim::mp::ExecMode::kFibers;
    rt.workers = 2;
    core::ParallelResult r =
        core::run_parallel(traced ? *traced_scene_ : scene_, s, built_.spec,
                           built_.placement, {}, rt);
    std::uint64_t live = 0;
    for (const auto& sys : r.final_particles) live += sys.size();
    PassOutput out;
    out.attempted = 1;
    out.jobs = 1;
    out.fingerprint = {
        {"fb_hash", json_hex(psanim::render::hash_framebuffer(r.final_frame))},
        {"final_particles", json_uint(live)},
        {"particle_updates", json_uint(particle_updates_of(r))},
        {"virtual_makespan_s", json_num(r.animation_s)},
    };
    if (traced) traced_result_ = std::move(r);
    return out;
  }

  std::uint64_t particle_updates() const override {
    return traced_result_ ? particle_updates_of(*traced_result_) : 0;
  }

  Fields layers(double oh, Oracle& oracle) override {
    const core::ParallelResult& r = *traced_result_;
    Fields f;
    emit_psys(f, *tallies_, oh);
    Counts c;
    c.add(r);
    c.emit(f);
    emit_rates(f, probe_rates(r.final_particles, scene_, settings_,
                              kProbeReps));
    const auto& m = r.metrics;
    f.emplace_back("lb.particles_moved",
                   json_num(m.counter_value("psanim_lb_particles_sent_total")));
    f.emplace_back("lb.pairs_evaluated",
                   json_num(m.counter_value("psanim_lb_pairs_evaluated_total")));
    f.emplace_back("lb.frame_imbalance_max",
                   json_num(m.gauge_value("psanim_obs_frame_imbalance_max")));
    f.emplace_back("obs.cp_compute_s",
                   json_num(m.counter_value("psanim_obs_cp_compute_seconds_total")));
    f.emplace_back("obs.cp_wire_s",
                   json_num(m.counter_value("psanim_obs_cp_wire_seconds_total")));
    f.emplace_back("obs.cp_wire_share",
                   json_num(m.gauge_value("psanim_obs_cp_wire_share")));

    // The sequential baseline on the same scene: its host cost, and its
    // population as the oracle. The calculators' union must hold as many
    // particles per system, and the same multiset of bitwise positions
    // unless a random-accel action runs: its draws follow each
    // calculator's own particle order, so positions then depend on the
    // split while counts do not.
    const double c0 = process_cpu_s();
    const core::SequentialResult seq =
        core::run_sequential(scene_, settings_, sim::baseline_rate(cfg_));
    f.emplace_back("sim.sequential_cpu_s", json_num(process_cpu_s() - c0));
    if (seq.populations.size() != r.final_particles.size()) {
      oracle = {false, "system count differs from the sequential run"};
    }
    for (std::size_t s = 0; oracle.ok && s < seq.populations.size(); ++s) {
      const auto& want = seq.populations[s];
      const auto& got = r.final_particles[s];
      if (want.size() != got.size() ||
          (!has_random_accel(scene_.systems[s]) &&
           positions(want) != positions(got))) {
        oracle = {false, "system " + std::to_string(s) +
                             ": particles differ from the sequential run"};
      }
    }
    return f;
  }

 private:
  static bool has_random_accel(const psanim::psys::ParticleSystem& sys) {
    for (const auto& a : sys.actions()) {
      if (std::strcmp(a->name(), "random-accel") == 0) return true;
    }
    return false;
  }

  using Bits = std::array<std::uint32_t, 3>;
  static std::vector<Bits> positions(const std::vector<psanim::psys::Particle>& ps) {
    std::vector<Bits> out;
    out.reserve(ps.size());
    for (const auto& p : ps) {
      Bits b;
      std::memcpy(&b[0], &p.pos.x, 4);
      std::memcpy(&b[1], &p.pos.y, 4);
      std::memcpy(&b[2], &p.pos.z, 4);
      out.push_back(b);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  bool snow_;
  std::uint64_t seed_;
  sim::ScenarioParams params_;
  sim::RunConfig cfg_;
  core::Scene scene_;
  sim::BuiltCluster built_;
  core::SimSettings settings_;
  std::unique_ptr<PsysTallies> tallies_;
  std::optional<core::Scene> traced_scene_;
  std::optional<core::ParallelResult> traced_result_;
};

// ---------------------------------------------------------------------------
// farm_stream: the farm_arrivals job generator on 8 x 4 slots.

/// splitmix64: seedable and stdlib-free, so the stream is identical on
/// every platform.
struct StreamRng {
  std::uint64_t state;
  std::uint64_t next_u64() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {  // (0, 1]
    return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
  }
  double exponential(double mean) { return -std::log(uniform()) * mean; }
};

struct JobShape {
  bool interactive = false;
  std::uint32_t frames = 4;
  int ncalc = 1;          ///< world = ncalc + 2
  double submit_s = 0.0;  ///< absolute arrival, or think delay when chained
  int chain_parent = -1;  ///< closed-loop: arrive after this job ends
  std::uint64_t seed = 0;
};

/// A job class: every job with these frames and calculators costs the
/// same host time standalone, which farm.job_exec_est_s relies on.
struct JobClass {
  std::uint32_t frames;
  int ncalc;  ///< world = ncalc + 2
};

// Heavy-tailed and wide, as in farm_arrivals: mostly 4-frame clips on
// world 3, a thin tail of long, wide sequences (40f world 5, 120f world 8)
// that blocks the head and gives EASY backfill holes to fill.
constexpr JobClass kClasses[] = {{4, 1}, {12, 1}, {40, 3}, {120, 6}};

/// Open-loop arrivals by kind, in exact quotas: farm_arrivals' mix (20%
/// interactive 4-frame clips; batch 80/15/4/1% over the four classes) on
/// 1,400 roots. Exact quotas instead of i.i.d. draws keep the total work,
/// and so the host cost, the same on every seed.
struct RootKind {
  bool interactive;
  std::size_t cls;
  std::size_t count;
};
constexpr RootKind kRoots[] = {
    {true, 0, 280}, {false, 0, 896}, {false, 1, 168},
    {false, 2, 45}, {false, 3, 11},
};
constexpr std::size_t kRootCount = 1400;
/// Each of the 140 closed-loop follow-ups (one per 10 roots) is a 4-frame
/// clip of its parent's tenant.
constexpr std::size_t kFollowUps = kRootCount / 10;
/// The seed permutes roots within windows of this many, and each window's
/// Poisson gaps are rescaled to span exactly this many mean gaps.
constexpr std::size_t kWindow = 20;

std::size_t class_of(const JobShape& s) {
  for (std::size_t i = 0; i < std::size(kClasses); ++i) {
    if (kClasses[i].frames == s.frames) return i;
  }
  throw std::logic_error("job shape outside every class");
}

/// Load shape: kLaunches concurrent jobs x one fiber worker each = 4 busy
/// threads, the machine's core count.
constexpr int kLaunches = 4;

psanim::mp::RuntimeOptions farm_runtime() {
  psanim::mp::RuntimeOptions rt;
  rt.exec_mode = psanim::mp::ExecMode::kFibers;
  rt.workers = 1;
  return rt;
}

class FarmWorkload final : public Workload {
 public:
  /// 1,540 jobs, so wait p99 and the interactive tenant's p95 (308 jobs)
  /// each keep >= 10 samples beyond them.
  static constexpr std::size_t kJobs = kRootCount + kFollowUps;

  FarmWorkload(std::uint64_t seed, const std::string& tmp_dir)
      : seed_(seed),
        journal_((std::filesystem::path(tmp_dir) /
                  ("farm_journal_" + std::to_string(seed) + ".bin"))
                     .string()) {
    spec_.add(psanim::cluster::NodeType::generic(1.0, 4), 8);  // 32 slots
  }
  ~FarmWorkload() override {
    farm_.reset();
    std::error_code ec;
    std::filesystem::remove(journal_, ec);
  }

  void setup(bool traced) override {
    farm_.reset();
    scenes_.clear();
    tallies_ = traced ? std::make_unique<PsysTallies>() : nullptr;
    // The arrival rate is exact and the same on every setup, so its
    // calibration runs are paid once, by the first setup.
    if (interarrival_ == 0.0) interarrival_ = calibrate_interarrival();
    shapes_ = make_stream(interarrival_);
    std::filesystem::remove(journal_);

    farm::FarmOptions o;
    o.policy = farm::Policy::kPriority;
    o.easy_backfill = true;
    o.victim_selection = farm::VictimSelection::kCostAware;
    o.preempt_interval = 4;  // 4-frame clips stay unpreemptible
    o.max_parallel_launches = kLaunches;
    o.workers_per_job = farm_runtime().workers;
    o.exec_mode = farm_runtime().exec_mode;
    o.journal_path = journal_;
    // The traced pass keeps job payloads for the per-layer counts.
    o.keep_results = traced;
    farm_ = std::make_unique<farm::Farm>(spec_, o);
    handles_.clear();
    handles_.reserve(shapes_.size());
    submit_s_ = 0.0;
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      farm::JobSpec job = make_job(shapes_[i], i);
      if (traced) {
        // The farm takes the scene; its actions stay owned by scenes_.
        scenes_.push_back(std::move(job.scene));
        job.scene = instrument(scenes_.back(), *tallies_);
      }
      const auto t0 = Clock::now();
      handles_.push_back(farm_->submit(std::move(job)));
      submit_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
    }
  }

  PassOutput run(bool traced) override {
    report_ = farm_->run();
    PassOutput out;
    out.attempted = shapes_.size();
    out.failed = report_.jobs_failed + report_.jobs_cancelled;
    out.jobs = report_.jobs_done;

    // Per-job outputs in one digest; the interactive tenant's waits from
    // each job's arrival (a chained job arrives a think delay after its
    // parent's finish).
    Digest d;
    psanim::obs::Quantiles interactive;
    updates_ = 0;
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      const farm::JobResult& jr = handles_[i].await();
      d.add(static_cast<int>(jr.state));
      d.add(jr.fb_hash);
      d.add(jr.start_s);
      d.add(jr.finish_s);
      d.add(jr.preemptions);
      if (traced) updates_ += particle_updates_of(jr.result);
      if (jr.state != farm::JobState::kDone || !shapes_[i].interactive) {
        continue;
      }
      double arrive = shapes_[i].submit_s;
      if (shapes_[i].chain_parent >= 0) {
        arrive =
            handles_[static_cast<std::size_t>(shapes_[i].chain_parent)]
                .await()
                .finish_s +
            shapes_[i].submit_s;
      }
      interactive.observe(jr.start_s - arrive);
    }
    const auto beyond = [](const psanim::obs::Quantiles& q, double p) {
      const double v = q.quantile(p);
      const auto& s = q.sorted_samples();
      return static_cast<std::uint64_t>(
          s.end() - std::upper_bound(s.begin(), s.end(), v));
    };
    const auto& w = report_.wait_q;
    out.fingerprint = {
        {"jobs", json_uint(shapes_.size())},
        {"jobs_done", json_uint(report_.jobs_done)},
        {"jobs_failed", json_uint(report_.jobs_failed)},
        {"jobs_cancelled", json_uint(report_.jobs_cancelled)},
        {"jobs_digest", json_hex(d.h)},
        {"virtual_makespan_s", json_num(report_.makespan_s)},
        {"wait_p50_s", json_num(w.quantile(0.50))},
        {"wait_p50_beyond", json_uint(beyond(w, 0.50))},
        {"wait_p99_s", json_num(w.quantile(0.99))},
        {"wait_p99_beyond", json_uint(beyond(w, 0.99))},
        {"interactive_wait_p95_s", json_num(interactive.quantile(0.95))},
        {"interactive_wait_p95_beyond", json_uint(beyond(interactive, 0.95))},
    };
    return out;
  }

  std::uint64_t particle_updates() const override { return updates_; }

  Fields layers(double oh, Oracle& oracle) override {
    Fields f;
    emit_psys(f, *tallies_, oh);
    Counts c;
    std::vector<std::vector<psanim::psys::Particle>> finals;
    for (const auto& h : handles_) {
      const farm::JobResult& jr = h.await();
      c.add(jr.result);
      for (const auto& sys : jr.result.final_particles) finals.push_back(sys);
    }
    c.emit(f);
    const farm::JobSpec probe_job = make_job(shapes_.front(), 0);
    emit_rates(f, probe_rates(finals, probe_job.scene, probe_job.settings,
                              kProbeReps));
    f.emplace_back("lb.particles_moved", json_uint(c.lb_moved));
    f.emplace_back("lb.pairs_evaluated", json_uint(c.lb_pairs));
    f.emplace_back("lb.frame_imbalance_max", json_num(c.imbalance_max));

    // Host cost of one standalone run per job class (median of a few),
    // which doubles as the oracle: each re-run must reproduce the farm's
    // framebuffer for that job bit for bit.
    double probe_s = 0.0, exec_est_s = 0.0;
    std::size_t per_class[std::size(kClasses)] = {};
    for (const auto& s : shapes_) ++per_class[class_of(s)];
    for (std::size_t k = 0; k < std::size(kClasses); ++k) {
      const auto it = std::find_if(
          shapes_.begin(), shapes_.end(),
          [k](const JobShape& s) { return class_of(s) == k; });
      if (it == shapes_.end()) continue;
      const auto i = static_cast<std::size_t>(it - shapes_.begin());
      const farm::JobResult& jr = handles_[i].await();
      if (jr.state != farm::JobState::kDone) continue;
      const farm::JobSpec job = make_job(*it, i);
      const auto same = [&](const core::ParallelResult& r) {
        if (psanim::render::hash_framebuffer(r.final_frame) != jr.fb_hash) {
          oracle = {false, "job " + std::to_string(i) +
                               ": standalone re-run differs from the farm"};
        }
      };
      same(farm::standalone_run(job, jr.assignment));
      // Timed with the farm's runtime options (standalone_run sizes its
      // worker pool from the hardware), so the cost is the farm's own.
      std::vector<double> cpu;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        const double c0 = process_cpu_s();
        const auto r = core::run_parallel(job.scene, job.settings,
                                          jr.assignment.sub_spec,
                                          jr.assignment.placement, {},
                                          farm_runtime());
        cpu.push_back(process_cpu_s() - c0);
        same(r);
      }
      std::sort(cpu.begin(), cpu.end());
      probe_s += cpu[cpu.size() / 2];
      exec_est_s += cpu[cpu.size() / 2] * static_cast<double>(per_class[k]);
    }
    f.emplace_back("farm.submit_s", json_num(submit_s_));
    f.emplace_back("farm.job_probe_s", json_num(probe_s));
    f.emplace_back("farm.job_exec_est_s", json_num(exec_est_s));

    const auto& m = report_.metrics;
    std::uint64_t launches = 0;
    for (const auto& h : handles_) {
      launches += 1 + static_cast<std::uint64_t>(h.await().preemptions);
    }
    f.emplace_back("farm.launches", json_uint(launches));
    f.emplace_back("farm.preemptions",
                   json_num(m.counter_value("psanim_farm_preemptions_total")));
    f.emplace_back("farm.restores",
                   json_num(m.counter_value("psanim_farm_restores_total")));
    f.emplace_back("farm.backfills",
                   json_num(m.counter_value("psanim_farm_backfills_total")));
    f.emplace_back("farm.migrations",
                   json_num(m.counter_value("psanim_farm_migrations_total")));
    f.emplace_back("farm.reservations",
                   json_num(m.counter_value("psanim_farm_reservations_total")));
    f.emplace_back("farm.queue_depth_peak",
                   json_num(m.gauge_value("psanim_farm_queue_depth_peak")));
    f.emplace_back("farm.journal_bytes",
                   json_uint(std::filesystem::file_size(journal_)));
    return f;
  }

 private:
  static farm::JobSpec make_job(const JobShape& shape, std::size_t idx) {
    sim::ScenarioParams p;
    p.systems = 1;
    p.particles_per_system = 40;
    p.frames = shape.frames;
    farm::JobSpec j;
    j.name = "j" + std::to_string(idx);
    j.scene = sim::make_fountain_scene(p);
    j.settings.ncalc = shape.ncalc;
    j.settings.frames = shape.frames;
    j.settings.seed = shape.seed;
    j.settings.image_width = 32;
    j.settings.image_height = 24;
    j.tenant = shape.interactive ? "interactive" : "batch";
    j.priority = shape.interactive ? 5 : 0;
    j.submit_time_s = shape.submit_s;
    j.after_seq = shape.chain_parent;
    return j;
  }

  /// Root interarrival for an offered load of 0.9 on the 32 slots, from
  /// one standalone run per class (virtual durations, so the rate is exact
  /// and seed-independent).
  double calibrate_interarrival() const {
    double rank_s[std::size(kClasses)] = {};
    for (std::size_t k = 0; k < std::size(kClasses); ++k) {
      JobShape shape;
      shape.frames = kClasses[k].frames;
      shape.ncalc = kClasses[k].ncalc;
      const int world = shape.ncalc + 2;
      const auto assign =
          farm::assign_slots(spec_, std::vector<int>(8, 4), world);
      rank_s[k] = farm::standalone_run(make_job(shape, 0), assign).animation_s *
                  static_cast<double>(world);
    }
    double total = static_cast<double>(kFollowUps) * rank_s[0];
    for (const RootKind& r : kRoots) {
      total += static_cast<double>(r.count) * rank_s[r.cls];
    }
    return total / static_cast<double>(kRootCount) / (32.0 * 0.9);
  }

  /// Open-loop roots with exponential gaps, each kind's quota spread
  /// evenly and then permuted within windows by the seed, and after every
  /// 10th root a closed-loop follow-up arriving a think delay after its
  /// parent ends.
  std::vector<JobShape> make_stream(double interarrival) const {
    std::vector<std::pair<double, std::size_t>> order;  // (position, kind)
    for (std::size_t k = 0; k < std::size(kRoots); ++k) {
      for (std::size_t j = 0; j < kRoots[k].count; ++j) {
        order.emplace_back((static_cast<double>(j) + 0.5) /
                               static_cast<double>(kRoots[k].count),
                           k);
      }
    }
    std::sort(order.begin(), order.end());
    StreamRng rng{seed_ ^ 0x5EEDFA51ull};
    std::vector<double> gaps(kRootCount);
    for (std::size_t w = 0; w < kRootCount; w += kWindow) {
      const std::size_t end = std::min(kRootCount, w + kWindow);
      for (std::size_t i = end - 1; i > w; --i) {
        const auto j = w + rng.next_u64() % (i - w + 1);
        std::swap(order[i], order[j]);
      }
      double sum = 0.0;
      for (std::size_t i = w; i < end; ++i) sum += gaps[i] = rng.exponential(1);
      const double scale = static_cast<double>(end - w) * interarrival / sum;
      for (std::size_t i = w; i < end; ++i) gaps[i] *= scale;
    }

    std::vector<JobShape> out;
    out.reserve(kJobs);
    double clock = 0.0;
    for (std::size_t i = 0; i < kRootCount; ++i) {
      const RootKind& kind = kRoots[order[i].second];
      clock += gaps[i];
      JobShape s;
      s.interactive = kind.interactive;
      s.frames = kClasses[kind.cls].frames;
      s.ncalc = kClasses[kind.cls].ncalc;
      s.submit_s = clock;
      s.seed = rng.next_u64();
      out.push_back(s);
      if ((i + 1) % 10 == 0) {
        JobShape follow = s;
        follow.chain_parent = static_cast<int>(out.size() - 1);
        follow.submit_s = 0.5 * interarrival;  // think delay
        follow.frames = kClasses[0].frames;
        follow.ncalc = kClasses[0].ncalc;
        follow.seed = rng.next_u64();
        out.push_back(follow);
      }
    }
    return out;
  }

  std::uint64_t seed_;
  std::string journal_;
  psanim::cluster::ClusterSpec spec_;
  std::vector<JobShape> shapes_;
  std::deque<core::Scene> scenes_;
  std::unique_ptr<PsysTallies> tallies_;
  std::unique_ptr<farm::Farm> farm_;
  std::vector<farm::JobHandle> handles_;
  farm::Report report_;
  double interarrival_ = 0.0;
  double submit_s_ = 0.0;
  std::uint64_t updates_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmp_dir) {
  if (name == "snow_fs_dlb") return std::make_unique<SimWorkload>(true, seed);
  if (name == "fountain_is_dlb") {
    return std::make_unique<SimWorkload>(false, seed);
  }
  if (name == "farm_stream") {
    return std::make_unique<FarmWorkload>(seed, tmp_dir);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
