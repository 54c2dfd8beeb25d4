#pragma once

// Pinhole camera: world -> pixel projection for the point-splat renderer.

#include <optional>

#include "math/vec.hpp"

namespace psanim::render {

/// A point projected into the image.
struct Projected {
  float x = 0.0f;       ///< pixel x (fractional)
  float y = 0.0f;       ///< pixel y (fractional)
  float depth = 0.0f;   ///< camera-space distance along the view axis
  float px_per_unit = 0.0f;  ///< pixels covered by one world unit at depth
};

class Camera {
 public:
  /// Look-at constructor. `vfov_deg` is the vertical field of view.
  Camera(Vec3 eye, Vec3 target, Vec3 up, float vfov_deg, int width,
         int height);

  Vec3 eye() const { return eye_; }
  int width() const { return width_; }
  int height() const { return height_; }

  /// Project a world point. nullopt when behind the near plane.
  std::optional<Projected> project(Vec3 world) const {
    const Vec3 rel = world - eye_;
    const float depth = rel.dot(forward_);
    if (depth < kNear) return std::nullopt;
    const float cx = rel.dot(right_);
    const float cy = rel.dot(up_);
    Projected out;
    out.x = static_cast<float>(width_) * 0.5f + focal_px_ * cx / depth;
    out.y = static_cast<float>(height_) * 0.5f - focal_px_ * cy / depth;
    out.depth = depth;
    out.px_per_unit = focal_px_ / depth;
    return out;
  }

  /// Default framing for a scene bounding range: eye pulled back on +z,
  /// centered on the box.
  static Camera framing(Vec3 center, float scene_radius, int width,
                        int height);

 private:
  Vec3 eye_;
  Vec3 right_, up_, forward_;  // orthonormal camera basis
  float focal_px_;             // focal length in pixels
  int width_, height_;
  static constexpr float kNear = 0.05f;
};

}  // namespace psanim::render
