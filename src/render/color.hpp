#pragma once

// Color helpers for the software renderer. Colors are linear-light RGB in
// [0,1] floats internally; conversion to 8-bit applies a gamma of 2.2 at
// image-write time.

#include <algorithm>
#include <cstdint>

#include "math/vec.hpp"

namespace psanim::render {

using Color = Vec3;  // r, g, b in linear [0, 1]

struct Rgb8 {
  std::uint8_t r = 0, g = 0, b = 0;
  bool operator==(const Rgb8&) const = default;
};

/// Clamp each channel into [0, 1].
Color clamp01(Color c);

/// Linear -> display (gamma 2.2) 8-bit conversion.
Rgb8 to_rgb8(Color linear);

/// Source-over alpha blend: src with coverage `alpha` over dst.
Color blend_over(Color src, float alpha, Color dst);

/// Energy-additive blend (glowing particles), clamped at write time.
inline Color blend_add(Color src, float alpha, Color dst) {
  return dst + src * std::clamp(alpha, 0.0f, 1.0f);
}

/// Perceived luminance (Rec. 709 weights) of a linear color.
float luminance(Color c);

}  // namespace psanim::render
