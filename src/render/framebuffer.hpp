#pragma once

// Float framebuffer with a depth channel.

#include <cstddef>
#include <vector>

#include "render/color.hpp"

namespace psanim::render {

class Framebuffer {
 public:
  Framebuffer(int width, int height, Color clear_color = {0, 0, 0});

  int width() const { return width_; }
  int height() const { return height_; }
  std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  void clear(Color c = {0, 0, 0});

  bool in_bounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  Color pixel(int x, int y) const { return color_[index(x, y)]; }
  float depth(int x, int y) const { return depth_[index(x, y)]; }

  /// Overwrite a pixel if `z` passes the depth test (closer = smaller z).
  void put(int x, int y, Color c, float z);

  /// Alpha-blend over the existing pixel; passes if z is not farther than
  /// the stored opaque depth (translucent splats don't write depth).
  void blend(int x, int y, Color c, float alpha, float z);

  /// Additive energy splat (no depth interaction).
  void add(int x, int y, Color c, float alpha) {
    if (!in_bounds(x, y)) return;
    const std::size_t i = index(x, y);
    color_[i] = blend_add(c, alpha, color_[i]);
  }

  const std::vector<Color>& colors() const { return color_; }
  const std::vector<float>& depths() const { return depth_; }
  std::vector<Color>& mutable_colors() { return color_; }
  std::vector<float>& mutable_depths() { return depth_; }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_;
  int height_;
  std::vector<Color> color_;
  std::vector<float> depth_;
};

}  // namespace psanim::render
