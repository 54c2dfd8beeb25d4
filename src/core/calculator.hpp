#pragma once

// A calculator process (§3.1.1): applies the actions to its particles,
// moves them, detects collisions, exchanges crossers with the other
// calculators, obeys the manager's balance orders and ships its particles
// to the image generator every frame.

#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/vault.hpp"
#include "collide/spatial_hash.hpp"
#include "core/decomposition.hpp"
#include "core/frame_loop.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "mp/communicator.hpp"
#include "obs/role_tracer.hpp"
#include "psys/store.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "trace/telemetry.hpp"

namespace psanim::core {

class Calculator {
 public:
  Calculator(const SimSettings& settings, const Scene& scene, RoleEnv env,
             int index);

  void run(mp::Endpoint& ep);

  const trace::Telemetry& telemetry() const { return tel_; }
  int index() const { return idx_; }

  /// Particles currently held (tests inspect the final state).
  std::vector<psys::Particle> snapshot(psys::SystemId s) const {
    return stores_.at(s).snapshot();
  }

 private:
  void receive_created(mp::Endpoint& ep, std::uint32_t frame,
                       trace::CalcFrameStats& fs);
  /// Returns per-system compute time and pre-exchange particle counts.
  void compute_phase(mp::Endpoint& ep, std::uint32_t frame,
                     std::vector<double>& time_per_system,
                     std::vector<std::size_t>& count_per_system,
                     trace::CalcFrameStats& fs);
  void exchange_phase(mp::Endpoint& ep, std::uint32_t frame,
                      trace::CalcFrameStats& fs);
  void collide_phase(mp::Endpoint& ep, std::uint32_t frame,
                     std::vector<double>& time_per_system);
  void report_loads(mp::Endpoint& ep, std::uint32_t frame,
                    const std::vector<double>& time_per_system,
                    const std::vector<std::size_t>& count_per_system);
  void send_frame(mp::Endpoint& ep, std::uint32_t frame,
                  trace::CalcFrameStats& fs);
  void balance_phase(mp::Endpoint& ep, std::uint32_t frame,
                     trace::CalcFrameStats& fs);
  void charge_particles(mp::Endpoint& ep, double per_particle,
                        std::size_t n) const;
  /// Export the stores' non-finite drop counters (delta since last call)
  /// into the metrics registry.
  void report_nonfinite();
  /// Fail-stop: announce the crash to the manager and drop local state.
  void die(mp::Endpoint& ep, std::uint32_t frame);
  /// What the crash sweep at a frame boundary decided.
  enum class CrashOutcome {
    kNone,        ///< nothing pending — run the frame
    kRolledBack,  ///< restart recovery: frame was rewound, re-enter loop
    kDead,        ///< this calculator merge-crashed — thread exits
  };
  /// Detect crashes scheduled for `frame` (not yet handled), pick the
  /// policy's recovery and execute this rank's share of it. May rewind
  /// `frame` to the rollback target.
  CrashOutcome handle_crashes(mp::Endpoint& ep, std::uint32_t& frame);
  /// Merge-mode recovery: mirror the manager's merge bookkeeping for the
  /// (ascending) dead peers (membership is derived from the shared fault
  /// plan — no messages).
  void apply_crashes(mp::Endpoint& ep, std::uint32_t frame,
                     const std::vector<int>& dead);
  /// Snapshot frame-barrier state into the vault + digest to the manager.
  void capture(mp::Endpoint& ep, std::uint32_t frame);
  /// Restore this rank's vault image for snapshot frame `f0`.
  void restore(mp::Endpoint& ep, std::uint32_t f0);
  /// Consume the frame acks in flight across a rollback boundary — their
  /// count, min(frame - epoch_start_, 2), is exact under window-2 flow
  /// control and MPI non-overtaking order.
  void drain_stale_acks(mp::Endpoint& ep, std::uint32_t frame);
  /// Recompute alive_/peers_ for the start of `frame` (recovery-aware).
  void refresh_membership(std::uint32_t frame);
  /// Protocol receive with the per-phase deadline from SimSettings.
  mp::Message recv_p(mp::Endpoint& ep, int src, int tag) {
    return ep.recv_within(src, tag, set_.phase_timeout_s);
  }

  const SimSettings& set_;
  const Scene& scene_;
  RoleEnv env_;
  int idx_;
  std::vector<Decomposition> decomps_;
  std::vector<psys::SlicedStore> stores_;  // one per system
  /// Each system's crossers, pulled out by compute_phase's sweep and
  /// routed by exchange_phase in the same frame.
  std::vector<std::vector<psys::Particle>> crossers_;
  Rng base_rng_;
  render::Camera cam_;  // used in sort-last mode
  trace::Telemetry tel_;
  /// Crash-recovery membership: who is still running, and the exchange
  /// peer list derived from it (all alive calculators except self).
  std::vector<char> alive_;
  std::vector<int> peers_;
  /// Crashes already handled (by calculator index) — replayed frames must
  /// not re-execute a recovery.
  std::vector<char> crash_done_;
  /// First frame of the current ack epoch: 0 initially, snapshot_frame+1
  /// after every rollback/resume. The window-2 ack for frame f is consumed
  /// iff f - epoch_start_ >= 2.
  std::uint32_t epoch_start_ = 0;
  /// The digest (size + CRC) of this rank's latest snapshot image: the one
  /// it reported to the manager, or the sealed one it resumed from. A
  /// rollback checks its image against it, because the manager may not
  /// have sealed that frame yet.
  std::optional<ckpt::ManifestEntry> reported_;
  /// Observability: span stream and this rank's metric updates.
  obs::RoleTracer tr_;
  obs::CalcMetrics metrics_;
  /// Collision broad-phase grid, lazily built and reused every frame.
  std::optional<collide::SpatialHash> collide_grid_;
  /// Non-finite drops already exported to metrics_.
  std::uint64_t nonfinite_reported_ = 0;
};

}  // namespace psanim::core
