#include "render/color.hpp"

#include <cmath>

namespace psanim::render {

Color clamp01(Color c) {
  return {std::clamp(c.x, 0.0f, 1.0f), std::clamp(c.y, 0.0f, 1.0f),
          std::clamp(c.z, 0.0f, 1.0f)};
}

Rgb8 to_rgb8(Color linear) {
  const Color c = clamp01(linear);
  auto enc = [](float v) {
    return static_cast<std::uint8_t>(
        std::lround(std::pow(v, 1.0f / 2.2f) * 255.0f));
  };
  return {enc(c.x), enc(c.y), enc(c.z)};
}

Color blend_over(Color src, float alpha, Color dst) {
  const float a = std::clamp(alpha, 0.0f, 1.0f);
  return src * a + dst * (1.0f - a);
}

float luminance(Color c) {
  return 0.2126f * c.x + 0.7152f * c.y + 0.0722f * c.z;
}

}  // namespace psanim::render
