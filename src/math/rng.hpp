#pragma once

// Deterministic random number generation.
//
// psanim never uses std::random_device or global generators: every random
// stream is derived from an explicit (seed, stream-key) pair so that a
// simulation is bit-reproducible regardless of how many calculator
// processes it runs on. The manager derives one stream per
// (system, frame) for particle creation, and calculators derive streams
// per (system, frame, sub-key) for per-particle noise.

#include <cstdint>

#include "math/vec.hpp"

namespace psanim {

/// SplitMix64: used to expand seeds into xoshiro state and as a cheap
/// standalone mixer for key-derived streams.
inline constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mix an arbitrary number of 64-bit keys into one seed. Order-sensitive.
constexpr std::uint64_t mix_keys(std::uint64_t a) {
  std::uint64_t s = a;
  return splitmix64(s);
}
constexpr std::uint64_t mix_keys(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2));
  std::uint64_t m = splitmix64(s);
  s ^= b + 0x632be59bd9b4e019ULL;
  return m ^ splitmix64(s);
}
constexpr std::uint64_t mix_keys(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) {
  return mix_keys(mix_keys(a, b), c);
}
constexpr std::uint64_t mix_keys(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c, std::uint64_t d) {
  return mix_keys(mix_keys(a, b, c), d);
}

/// xoshiro256** generator. Fast, 2^256-1 period, suitable for simulation
/// noise (not cryptography). The draws the per-particle samplers make
/// (next_u64 → next_float → uniform → in_unit_ball) are defined inline so
/// a batched sampler loop compiles without an out-of-line call per value.
class Rng {
 public:
  /// Seeds the state by running splitmix64 over `seed`.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  /// Derive an independent stream from this generator's seed and a key.
  /// Deterministic: the same (seed, key) always yields the same stream.
  Rng derive(std::uint64_t key) const { return Rng(mix_keys(seed_, key)); }
  Rng derive(std::uint64_t k1, std::uint64_t k2) const {
    return Rng(mix_keys(seed_, k1, k2));
  }
  Rng derive(std::uint64_t k1, std::uint64_t k2, std::uint64_t k3) const {
    return Rng(mix_keys(seed_, k1, k2, k3));
  }

  std::uint64_t seed() const { return seed_; }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). Uses Lemire's multiply-shift reduction (slightly
  /// biased for astronomically large n; fine for simulation use).
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform in [0, 1).
  double next_double();
  /// Uniform float in [0, 1).
  float next_float() {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }
  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) { return lo + (hi - lo) * next_float(); }
  /// Standard normal via Box-Muller (one value per call; caches spare).
  float normal();
  /// Normal with given mean and standard deviation.
  float normal(float mean, float stddev) { return mean + stddev * normal(); }

  /// Uniform point inside the unit ball.
  Vec3 in_unit_ball() {
    // Rejection sampling: expected < 2 iterations.
    for (;;) {
      const Vec3 p{uniform(-1, 1), uniform(-1, 1), uniform(-1, 1)};
      if (p.length2() <= 1.0f) return p;
    }
  }
  /// Uniform point on the unit sphere surface.
  Vec3 on_unit_sphere();
  /// Uniform point inside an axis-aligned box [lo, hi].
  Vec3 in_box(Vec3 lo, Vec3 hi);
  /// Uniform point inside the disc of given radius in the plane orthogonal
  /// to `normal` centered at origin.
  Vec3 in_disc(float radius, Vec3 normal);

  /// True with probability p.
  bool bernoulli(double p) { return next_double() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  std::uint64_t seed_;
  bool has_spare_ = false;
  float spare_ = 0.0f;
};

}  // namespace psanim
