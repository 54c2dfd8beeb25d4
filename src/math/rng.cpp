#include "math/rng.hpp"

#include <cmath>

namespace psanim {

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  if (n == 0) return 0;
  // 128-bit multiply-shift; bias is O(n / 2^64).
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next_u64()) * n;
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  // Box-Muller. Avoid log(0) by nudging u1 away from zero.
  float u1 = next_float();
  if (u1 < 1e-12f) u1 = 1e-12f;
  const float u2 = next_float();
  const float r = std::sqrt(-2.0f * std::log(u1));
  const float theta = 6.28318530717958647692f * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

Vec3 Rng::on_unit_sphere() {
  // Marsaglia (1972).
  for (;;) {
    const float a = uniform(-1, 1);
    const float b = uniform(-1, 1);
    const float s = a * a + b * b;
    if (s >= 1.0f) continue;
    const float t = 2.0f * std::sqrt(1.0f - s);
    return {a * t, b * t, 1.0f - 2.0f * s};
  }
}

Vec3 Rng::in_box(Vec3 lo, Vec3 hi) {
  return {uniform(lo.x, hi.x), uniform(lo.y, hi.y), uniform(lo.z, hi.z)};
}

Vec3 Rng::in_disc(float radius, Vec3 normal) {
  const Vec3 n = normal.normalized();
  // Build an orthonormal basis {u, v} for the plane.
  const Vec3 helper = std::fabs(n.x) < 0.9f ? Vec3{1, 0, 0} : Vec3{0, 1, 0};
  const Vec3 u = n.cross(helper).normalized();
  const Vec3 v = n.cross(u);
  for (;;) {
    const float a = uniform(-1, 1);
    const float b = uniform(-1, 1);
    if (a * a + b * b > 1.0f) continue;
    return u * (a * radius) + v * (b * radius);
  }
}

}  // namespace psanim
