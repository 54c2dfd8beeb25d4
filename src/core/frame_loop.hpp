#pragma once

// Shared configuration for the Fig. 2 frame loop: the scene being
// animated, the knobs of the §5 experiment grid (space mode, balancing
// mode), and the per-role environment (cost model + effective rate).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/policy.hpp"
#include "cluster/cost_model.hpp"
#include "fault/fault_plan.hpp"
#include "lb/diffusion_lb.hpp"
#include "lb/dynamic_pairwise_lb.hpp"
#include "lb/load_balancer.hpp"
#include "lb/static_lb.hpp"
#include "math/aabb.hpp"
#include "platform/disk.hpp"
#include "psys/system.hpp"

namespace psanim::ckpt {
class Vault;
}

namespace psanim::obs {
class MetricsRegistry;
class Trace;
}  // namespace psanim::obs

namespace psanim::core {

/// IS / FS in the paper's tables: how the initial domain split covers
/// space. Infinite splits [-kHuge, kHuge]; finite splits the scene's box.
enum class SpaceMode { kInfinite, kFinite };

/// SLB / DLB columns, plus the decentralized future-work policy.
enum class LbMode { kStatic, kDynamicPairwise, kDiffusion };

/// How frames reach the image generator: gather every particle (the
/// paper's design) or composite locally-rendered partial images (the §6
/// remote-image-generation extension).
enum class ImageGenMode { kGatherParticles, kSortLast };

/// §3.3: "there are different ways to combine the processing of more than
/// one system. Depending on the form used, the processing may be more or
/// less efficient." kBundled ships one exchange message per peer per
/// frame carrying every system's crossers; kPerSystem runs a separate
/// exchange round per system (simpler bookkeeping, more messages — the
/// penalty grows with system count and message latency).
enum class SystemCombine { kBundled, kPerSystem };

std::string to_string(SpaceMode m);
std::string to_string(LbMode m);
std::string to_string(ImageGenMode m);
std::string to_string(SystemCombine c);

/// Observability knobs (psanim::obs). Tracing is on when either `trace`
/// is supplied (caller keeps the trace for queries; must outlive the run)
/// or `trace_json_path` is set (run_parallel owns an internal trace and
/// writes the Chrome JSON at run end — the own_vault pattern). The span
/// stream is the run's one event record: every role's protocol phases and
/// instants (Figure 2 as an executable trace) plus the fault injector's
/// `fault:` notes. Message-buffer pool statistics are process-wide and not
/// part of a run's metrics; read mp::BufferPool::global().stats().
struct ObsSettings {
  obs::Trace* trace = nullptr;
  /// Export the run's Chrome trace-event JSON here ("" = don't write).
  std::string trace_json_path;
  /// Capture a bounded ring of recent records into every checkpoint and
  /// re-emit it on restore (needs tracing on and a checkpoint policy).
  bool flight_recorder = false;
  std::size_t flight_capacity = 256;
  /// Run obs::analyze over the trace at run end and fold the headline
  /// numbers (critical-path compute/wire split, wire share, per-frame
  /// imbalance quantiles) into ParallelResult::metrics as
  /// psanim_obs_cp_* / psanim_obs_frame_* series. Needs tracing on.
  bool analysis = false;
  /// Also write the full schema-versioned analysis report JSON here
  /// ("" = don't write; a non-empty path implies `analysis`).
  std::string analysis_json_path;

  bool tracing() const { return trace != nullptr || !trace_json_path.empty(); }
  bool analyzing() const { return analysis || !analysis_json_path.empty(); }
};

/// The scene: the systems of Algorithm 1 plus the space they play in.
/// Systems are identified by their index in `systems` (§3.1.3). Immutable
/// during a run and shared by const reference across role threads.
struct Scene {
  std::vector<psys::ParticleSystem> systems;
  Aabb space;          ///< finite simulated space (FS mode splits this)
  Vec3 look_center{};  ///< camera framing
  float look_radius = 10.0f;
};

struct SimSettings {
  int ncalc = 4;
  std::uint32_t frames = 60;
  float dt = 1.0f / 30.0f;
  int axis = 0;  ///< decomposition axis (x)
  SpaceMode space = SpaceMode::kFinite;
  LbMode lb = LbMode::kDynamicPairwise;
  lb::DynamicPairwiseConfig dlb;
  lb::DiffusionConfig diffusion;
  ImageGenMode imgen = ImageGenMode::kGatherParticles;
  SystemCombine combine = SystemCombine::kBundled;
  int image_width = 320;
  int image_height = 240;
  /// Write frames as PPM into this directory every `write_every` frames
  /// (0 = never write).
  std::string frame_dir;
  std::uint32_t write_every = 0;
  /// Sub-domain vectors per store (§4); more slices = cheaper donations.
  std::size_t store_slices = 8;
  /// Particle-particle collisions (ghost exchange + spatial hash).
  bool pair_collisions = false;
  float collision_radius = 0.05f;
  float collision_restitution = 0.3f;
  std::uint64_t seed = 0x9d5c0ff5eedULL;
  /// Deterministic faults to inject (drops, duplicates, delay spikes,
  /// degradation, slowdowns, calculator crashes). Default: none. The plan
  /// is shared by every role; crash membership is derived from it
  /// identically everywhere (perfect-failure-detector model).
  fault::FaultPlan fault_plan;
  /// Wall-clock deadline for each protocol-phase receive; 0 inherits
  /// mp::RuntimeOptions::recv_timeout_s. A wedged peer fails the phase
  /// instead of hanging the whole run.
  double phase_timeout_s = 0.0;
  /// Coordinated checkpoint/restore: snapshot cadence and crash-recovery
  /// mode (see ckpt::CkptPolicy). Off by default.
  ckpt::CkptPolicy ckpt;
  /// Where snapshot images land. Null + enabled policy: run_parallel owns
  /// an internal vault. Supply one (it must outlive the run) to keep the
  /// checkpoints for replay/resume across runs.
  ckpt::Vault* ckpt_vault = nullptr;
  /// When set, skip frames 0..resume_from and restore every role from the
  /// sealed checkpoint at `resume_from` in `ckpt_vault` instead — the
  /// Replayer's entry point.
  std::optional<std::uint32_t> resume_from;
  /// Coordinated suspend: execute frames only up to `stop_after` — which
  /// must be a snapshot frame, so its sealed checkpoint is the last thing
  /// the run produces — then return. A later run with
  /// `resume_from = stop_after` over the same vault continues the
  /// animation bit-identically, possibly on different nodes (the farm's
  /// preemption mechanism). The executed prefix is bit-identical to the
  /// same frames of an uninterrupted run: nothing but the loop bound
  /// depends on this knob.
  std::optional<std::uint32_t> stop_after;
  /// Observability: span tracing, metrics, flight recorder (psanim::obs).
  ObsSettings obs;

  /// Reject nonsensical settings (non-positive frame counts, negative
  /// timeouts or checkpoint intervals, ...) with actionable messages.
  /// Throws std::invalid_argument. run_parallel/run_sequential call this.
  void validate() const;
};

/// Instantiate the configured balancing policy (one instance per system —
/// the pair-alternation state is per system, matching the paper's
/// per-system evaluation).
std::unique_ptr<lb::LoadBalancer> make_lb_policy(const SimSettings& s);

/// Build each system's initial decomposition interval along `axis`.
/// Returns {lo, hi} for the chosen space mode.
std::pair<float, float> initial_interval(const SimSettings& s,
                                         const Scene& scene);

/// Per-role execution environment.
struct RoleEnv {
  const cluster::CostModel* cost = nullptr;
  double rate = 1.0;  ///< this rank's effective compute rate
  /// This rank's metrics registry (null = metrics off). Owner-thread
  /// mutation only, like every per-rank obs buffer.
  obs::MetricsRegistry* metrics = nullptr;
  /// Storage model for this rank's checkpoint I/O: the disk named by the
  /// cluster spec's platform description (`;disk:`), else free — vault
  /// stores/fetches charge nothing, the pre-platform behavior.
  platform::DiskModel disk{};
};

}  // namespace psanim::core
