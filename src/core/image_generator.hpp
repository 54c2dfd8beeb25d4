#pragma once

// The image generator process (§3.1.1): collects the particles sent by
// the calculators and renders each frame, plus the external objects in the
// scene. In sort-last mode (§6 extension) it composites partial images
// instead.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/vault.hpp"
#include "core/frame_loop.hpp"
#include "core/wire.hpp"
#include "mp/communicator.hpp"
#include "obs/role_tracer.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "trace/telemetry.hpp"

namespace psanim::core {

/// The frame every image starts from: the background colour with the
/// ground grid (the scene's external objects, §3.2.4) drawn over it. It
/// depends on the scene and camera alone, so a run draws it once and copies
/// it into each frame before any particle lands.
render::Framebuffer draw_backdrop(const Scene& scene,
                                  const render::Camera& cam);

class ImageGenerator {
 public:
  ImageGenerator(const SimSettings& settings, const Scene& scene,
                 RoleEnv env);

  void run(mp::Endpoint& ep);

  const trace::Telemetry& telemetry() const { return tel_; }
  /// The last rendered frame.
  const render::Framebuffer& final_frame() const { return fb_; }

 private:
  void render_externals(mp::Endpoint& ep);
  void write_frame_if_due(std::uint32_t frame) const;
  /// Restart-eligible crashes scheduled for `frame`: roll back to the
  /// snapshot and rewind `frame` (returns true). Merge-mode crashes need
  /// no action here — per-frame membership accounts for them.
  bool handle_crashes(mp::Endpoint& ep, std::uint32_t& frame);
  /// Snapshot (telemetry + clock) into the vault + digest to the manager.
  /// The framebuffer restarts from the backdrop every frame, so it is not
  /// part of the image.
  void capture(mp::Endpoint& ep, std::uint32_t frame);
  /// Restore telemetry from this rank's vault image for frame `f0`.
  void restore(mp::Endpoint& ep, std::uint32_t f0);

  const SimSettings& set_;
  const Scene& scene_;
  RoleEnv env_;
  render::Camera cam_;
  const render::Framebuffer backdrop_;
  render::Framebuffer fb_;
  trace::Telemetry tel_;
  /// Crashes already handled (by calculator index) — replayed frames must
  /// not re-trigger a rollback.
  std::vector<char> crash_done_;
  /// The digest (size + CRC) of this rank's latest snapshot image: the one
  /// it reported to the manager, or the sealed one it resumed from. A
  /// rollback checks its image against it, because the manager may not
  /// have sealed that frame yet.
  std::optional<ckpt::ManifestEntry> reported_;
  /// Observability: span stream and this rank's metric updates.
  obs::RoleTracer tr_;
  obs::ImageGenMetrics metrics_;
};

}  // namespace psanim::core
