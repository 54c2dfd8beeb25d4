#pragma once

// Point-splat rasterizer: particles become screen-space discs with alpha
// falloff. Splat order does not affect the final image (blending is
// commutative per mode given the depth rule used), which keeps distributed
// rendering deterministic.

#include <cmath>
#include <span>

#include "psys/particle.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"

namespace psanim::render {

enum class BlendMode {
  kAdditive,  ///< energy accumulation — order independent
  kOpaque,    ///< depth-tested overwrite — order independent
};

struct SplatStats {
  std::size_t splatted = 0;  ///< particles that landed in the frustum
  std::size_t culled = 0;    ///< behind camera or dead
};

/// std::lround without the library call: round half away from zero. Below
/// 2^62 in magnitude the float-to-integer truncation is exact and so is
/// the fraction x − trunc(x); the two compares then add the carry without
/// a branch (a branchy version is slower on splat-sized inputs). NaN and
/// larger magnitudes take std::lround itself.
inline long lround_exact(float x) {
  if (!(std::fabs(x) < 0x1p62f)) return std::lround(x);
  const auto i = static_cast<long>(x);
  const float frac = x - static_cast<float>(i);
  return i + static_cast<long>(frac >= 0.5f) - static_cast<long>(frac <= -0.5f);
}

/// Anything with pos/color/alpha/size renders; a dead() member (Particle)
/// is honored when present.
template <typename P>
concept Splattable = requires(const P p) {
  { p.pos } -> std::convertible_to<Vec3>;
  { p.color } -> std::convertible_to<Vec3>;
  { p.alpha } -> std::convertible_to<float>;
  { p.size } -> std::convertible_to<float>;
};

/// Rasterize points into `fb` through `cam`. `size` is a world-space
/// radius; splats smaller than a pixel deposit one coverage-scaled sample.
template <Splattable P>
SplatStats splat_points(Framebuffer& fb, const Camera& cam,
                        std::span<const P> points,
                        BlendMode mode = BlendMode::kAdditive) {
  SplatStats stats;
  for (const auto& p : points) {
    if constexpr (requires { p.dead(); }) {
      if (p.dead()) {
        ++stats.culled;
        continue;
      }
    }
    const auto proj = cam.project(p.pos);
    if (!proj) {
      ++stats.culled;
      continue;
    }
    const float radius_px = std::max(0.0f, p.size * proj->px_per_unit);
    const int cx = static_cast<int>(lround_exact(proj->x));
    const int cy = static_cast<int>(lround_exact(proj->y));
    if (radius_px <= 0.75f) {
      // Sub-pixel: one sample, alpha scaled by area coverage.
      const float coverage =
          std::min(1.0f, radius_px * radius_px * 4.0f + 0.05f);
      if (mode == BlendMode::kAdditive) {
        fb.add(cx, cy, p.color, p.alpha * coverage);
      } else {
        fb.put(cx, cy, p.color, proj->depth);
      }
      ++stats.splatted;
      continue;
    }
    const int r = static_cast<int>(std::ceil(radius_px));
    const float inv_r2 = 1.0f / (radius_px * radius_px);
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        const float d2 = static_cast<float>(dx * dx + dy * dy);
        const float falloff = 1.0f - d2 * inv_r2;
        if (falloff <= 0.0f) continue;
        if (mode == BlendMode::kAdditive) {
          fb.add(cx + dx, cy + dy, p.color, p.alpha * falloff);
        } else {
          fb.put(cx + dx, cy + dy, p.color, proj->depth);
        }
      }
    }
    ++stats.splatted;
  }
  return stats;
}

/// Particle overload used by the sequential renderer and tests.
SplatStats splat_particles(Framebuffer& fb, const Camera& cam,
                           std::span<const psys::Particle> particles,
                           BlendMode mode = BlendMode::kAdditive);

}  // namespace psanim::render
