#include "render/camera.hpp"

#include <cmath>
#include <stdexcept>

namespace psanim::render {

Camera::Camera(Vec3 eye, Vec3 target, Vec3 up, float vfov_deg, int width,
               int height)
    : eye_(eye), width_(width), height_(height) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("Camera: image dimensions must be positive");
  }
  forward_ = (target - eye).normalized();
  right_ = forward_.cross(up).normalized();
  up_ = right_.cross(forward_);
  const float vfov = vfov_deg * 3.14159265358979323846f / 180.0f;
  focal_px_ = (static_cast<float>(height) * 0.5f) / std::tan(vfov * 0.5f);
}

Camera Camera::framing(Vec3 center, float scene_radius, int width,
                       int height) {
  // Pull back far enough that the scene radius fits the vertical FOV.
  const float vfov_deg = 50.0f;
  const float vfov = vfov_deg * 3.14159265358979323846f / 180.0f;
  const float dist = scene_radius / std::tan(vfov * 0.45f);
  const Vec3 eye = center + Vec3{0, scene_radius * 0.35f, dist};
  return Camera(eye, center, {0, 1, 0}, vfov_deg, width, height);
}

}  // namespace psanim::render
