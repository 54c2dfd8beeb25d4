#pragma once

// Replayer: the checkpoint subsystem's correctness oracle. It re-executes
// a run from a sealed snapshot frame and checks that the resumed run
// reproduces the original's final framebuffer bit-for-bit — the property
// that makes restart-from-checkpoint recovery safe to substitute for
// domain-merge degradation.
//
// Verification happens against a *copy* of the vault: replayed frames
// re-capture their snapshots, and the oracle must not mutate the images
// it is judging.

#include <cstdint>
#include <string>

#include "ckpt/vault.hpp"
#include "cluster/cluster_spec.hpp"
#include "cluster/placement.hpp"
#include "core/simulation.hpp"

namespace psanim::ckpt {

struct ReplayReport {
  std::uint32_t snapshot_frame = 0;
  std::uint32_t frames_replayed = 0;
  /// The vault holds a sealed manifest for the frame.
  bool manifest_complete = false;
  /// Every manifest entry's image is present with matching size and CRC,
  /// and its header names the rank's role, the frame and the run's seed.
  bool images_verified = false;
  /// The resumed run's final framebuffer equals the original's bit-exactly.
  bool framebuffer_identical = false;
  /// First failure, empty when everything checked out.
  std::string detail;

  bool ok() const {
    return manifest_complete && images_verified && framebuffer_identical;
  }
};

class Replayer {
 public:
  /// All references must outlive the Replayer. `settings` is the original
  /// run's configuration (without resume_from).
  Replayer(const core::Scene& scene, const core::SimSettings& settings,
           const cluster::ClusterSpec& spec,
           const cluster::Placement& placement,
           const cluster::CostModel& cost = {},
           mp::RuntimeOptions rt_options = {});

  /// Audit the checkpoint at `snapshot_frame` (manifest + ckpt::open_image),
  /// resume a run from it in a scratch copy of `vault`, and compare the
  /// final framebuffer bit-for-bit against `expected`.
  ReplayReport verify(const Vault& vault, std::uint32_t snapshot_frame,
                      const render::Framebuffer& expected) const;

 private:
  const core::Scene& scene_;
  const core::SimSettings& set_;
  const cluster::ClusterSpec& spec_;
  const cluster::Placement& placement_;
  cluster::CostModel cost_;
  mp::RuntimeOptions rt_options_;
};

}  // namespace psanim::ckpt
