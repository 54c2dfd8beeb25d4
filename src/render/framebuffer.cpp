#include "render/framebuffer.hpp"

#include <limits>
#include <stdexcept>

namespace psanim::render {

Framebuffer::Framebuffer(int width, int height, Color clear_color)
    : width_(width), height_(height) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("Framebuffer: dimensions must be positive");
  }
  color_.assign(pixel_count(), clear_color);
  depth_.assign(pixel_count(), std::numeric_limits<float>::infinity());
}

void Framebuffer::clear(Color c) {
  color_.assign(pixel_count(), c);
  depth_.assign(pixel_count(), std::numeric_limits<float>::infinity());
}

void Framebuffer::put(int x, int y, Color c, float z) {
  if (!in_bounds(x, y)) return;
  const std::size_t i = index(x, y);
  if (z <= depth_[i]) {
    color_[i] = c;
    depth_[i] = z;
  }
}

void Framebuffer::blend(int x, int y, Color c, float alpha, float z) {
  if (!in_bounds(x, y)) return;
  const std::size_t i = index(x, y);
  if (z <= depth_[i]) {
    color_[i] = blend_over(c, alpha, color_[i]);
  }
}

}  // namespace psanim::render
