#pragma once

// Geometric domains, modeled on McAllister's pDomain.
//
// A Domain serves two purposes, exactly as in the original API: sampling
// (where Source actions generate particle positions/velocities) and
// implicit-surface queries (what Bounce/Sink actions collide particles
// against).

#include <memory>
#include <span>
#include <string>

#include "math/aabb.hpp"
#include "math/rng.hpp"
#include "math/vec.hpp"

namespace psanim::psys {

enum class DomainKind {
  kPoint,
  kLine,
  kBox,
  kSphere,
  kDisc,
  kPlane,
  kCylinder,
};

std::string to_string(DomainKind k);

/// Result of a surface query: signed distance (negative = inside/behind)
/// and outward normal at the closest feature.
struct SurfaceHit {
  float signed_distance = 0.0f;
  Vec3 normal{0, 1, 0};
};

class Domain {
 public:
  virtual ~Domain() = default;

  virtual DomainKind kind() const = 0;

  /// Uniform sample inside/on the domain.
  virtual Vec3 generate(Rng& rng) const = 0;

  /// Batched generate(): fills `out` with exactly the values out.size()
  /// generate() calls would return, in order, consuming exactly their RNG
  /// draws (the golden corpus pins every draw). One virtual call per batch
  /// instead of per particle; the default simply loops.
  virtual void generate_n(Rng& rng, std::span<Vec3> out) const;

  /// True if the point lies inside (volumes) / behind the normal (plane).
  virtual bool within(Vec3 p) const = 0;

  /// Signed distance + normal for collision response. For thin domains
  /// (plane, disc) the sign is relative to the normal side.
  virtual SurfaceHit surface(Vec3 p) const = 0;

  /// Batched surface(): hits[i] = surface(points[i]), bit for bit.
  /// `hits` must be at least as long as `points`.
  virtual void surface_n(std::span<const Vec3> points,
                         std::span<SurfaceHit> hits) const;

  /// Conservative bounding box (kHuge extents for unbounded domains).
  virtual Aabb bounds() const = 0;
};

using DomainPtr = std::shared_ptr<const Domain>;

/// Single point (degenerate source; fountains emit here).
DomainPtr make_point(Vec3 p);
/// Segment from a to b.
DomainPtr make_line(Vec3 a, Vec3 b);
/// Axis-aligned box.
DomainPtr make_box(Vec3 lo, Vec3 hi);
/// Solid ball of `radius` around `center`; surface queries treat it as the
/// sphere boundary.
DomainPtr make_sphere(Vec3 center, float radius);
/// Flat disc: center, outward normal, radius.
DomainPtr make_disc(Vec3 center, Vec3 normal, float radius);
/// Infinite plane through `point` with outward `normal`. `within` is true
/// behind the plane (dot(p - point, normal) < 0).
DomainPtr make_plane(Vec3 point, Vec3 normal);
/// Solid cylinder between endpoints a and b with `radius`.
DomainPtr make_cylinder(Vec3 a, Vec3 b, float radius);

}  // namespace psanim::psys
