#include "psys/source_domain.hpp"

#include <algorithm>
#include <cmath>

namespace psanim::psys {

std::string to_string(DomainKind k) {
  switch (k) {
    case DomainKind::kPoint: return "point";
    case DomainKind::kLine: return "line";
    case DomainKind::kBox: return "box";
    case DomainKind::kSphere: return "sphere";
    case DomainKind::kDisc: return "disc";
    case DomainKind::kPlane: return "plane";
    case DomainKind::kCylinder: return "cylinder";
  }
  return "unknown";
}

void Domain::generate_n(Rng& rng, std::span<Vec3> out) const {
  for (Vec3& v : out) v = generate(rng);
}

void Domain::surface_n(std::span<const Vec3> points,
                       std::span<SurfaceHit> hits) const {
  for (std::size_t i = 0; i < points.size(); ++i) hits[i] = surface(points[i]);
}

namespace {

class PointDomain final : public Domain {
 public:
  explicit PointDomain(Vec3 p) : p_(p) {}
  DomainKind kind() const override { return DomainKind::kPoint; }
  Vec3 generate(Rng&) const override { return p_; }
  bool within(Vec3 p) const override { return p == p_; }
  SurfaceHit surface(Vec3 p) const override {
    const Vec3 d = p - p_;
    return {d.length(), d.normalized()};
  }
  Aabb bounds() const override { return {p_, p_}; }

 private:
  Vec3 p_;
};

class LineDomain final : public Domain {
 public:
  LineDomain(Vec3 a, Vec3 b) : a_(a), b_(b) {}
  DomainKind kind() const override { return DomainKind::kLine; }
  Vec3 generate(Rng& rng) const override {
    return lerp(a_, b_, rng.next_float());
  }
  bool within(Vec3 p) const override { return surface(p).signed_distance <= 1e-6f; }
  SurfaceHit surface(Vec3 p) const override {
    const Vec3 ab = b_ - a_;
    const float len2 = ab.length2();
    const float t =
        len2 > 0 ? std::clamp((p - a_).dot(ab) / len2, 0.0f, 1.0f) : 0.0f;
    const Vec3 closest = a_ + ab * t;
    const Vec3 d = p - closest;
    return {d.length(), d.normalized()};
  }
  Aabb bounds() const override {
    Aabb b = Aabb::empty();
    b.extend(a_);
    b.extend(b_);
    return b;
  }

 private:
  Vec3 a_;
  Vec3 b_;
};

class BoxDomain final : public Domain {
 public:
  BoxDomain(Vec3 lo, Vec3 hi) : box_(lo, hi) {}
  DomainKind kind() const override { return DomainKind::kBox; }
  Vec3 generate(Rng& rng) const override {
    return rng.in_box(box_.lo, box_.hi);
  }
  bool within(Vec3 p) const override { return box_.contains(p); }
  SurfaceHit surface(Vec3 p) const override {
    if (!box_.contains(p)) {
      const Vec3 c = box_.clamp(p);
      const Vec3 d = p - c;
      return {d.length(), d.normalized()};
    }
    // Inside: distance to the nearest face, normal pointing out of it.
    float best = box_.hi.x - p.x;
    Vec3 n{1, 0, 0};
    auto consider = [&](float dist, Vec3 normal) {
      if (dist < best) {
        best = dist;
        n = normal;
      }
    };
    consider(p.x - box_.lo.x, {-1, 0, 0});
    consider(box_.hi.y - p.y, {0, 1, 0});
    consider(p.y - box_.lo.y, {0, -1, 0});
    consider(box_.hi.z - p.z, {0, 0, 1});
    consider(p.z - box_.lo.z, {0, 0, -1});
    return {-best, n};
  }
  Aabb bounds() const override { return box_; }

 private:
  Aabb box_;
};

class SphereDomain final : public Domain {
 public:
  SphereDomain(Vec3 c, float r) : c_(c), r_(r) {}
  DomainKind kind() const override { return DomainKind::kSphere; }
  Vec3 generate(Rng& rng) const override {
    return c_ + rng.in_unit_ball() * r_;
  }
  void generate_n(Rng& rng, std::span<Vec3> out) const override {
    // in_unit_ball() without the per-sample branch: every candidate triple
    // is drawn in the same order and written, and only an accepted one
    // advances the cursor — a rejected one is overwritten by the next.
    std::size_t i = 0;
    while (i < out.size()) {
      const Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
      out[i] = c_ + p * r_;
      i += p.length2() <= 1.0f ? 1 : 0;
    }
  }
  bool within(Vec3 p) const override { return (p - c_).length2() <= r_ * r_; }
  SurfaceHit surface(Vec3 p) const override {
    const Vec3 d = p - c_;
    return {d.length() - r_, d.normalized()};
  }
  Aabb bounds() const override {
    return {c_ - Vec3{r_, r_, r_}, c_ + Vec3{r_, r_, r_}};
  }

 private:
  Vec3 c_;
  float r_;
};

class DiscDomain final : public Domain {
 public:
  DiscDomain(Vec3 c, Vec3 n, float r) : c_(c), n_(n.normalized()), r_(r) {}
  DomainKind kind() const override { return DomainKind::kDisc; }
  Vec3 generate(Rng& rng) const override {
    return c_ + rng.in_disc(r_, n_);
  }
  bool within(Vec3 p) const override {
    const SurfaceHit h = surface(p);
    return std::fabs(h.signed_distance) <= 1e-5f;
  }
  SurfaceHit surface(Vec3 p) const override {
    const Vec3 d = p - c_;
    const float h = d.dot(n_);          // height above disc plane
    const Vec3 in_plane = d - n_ * h;   // projection
    const float rad = in_plane.length();
    if (rad <= r_) {
      // Above/below the disc face: signed by the normal side.
      return {h, n_};
    }
    // Closest point is the disc rim.
    const Vec3 rim = c_ + in_plane * (r_ / rad);
    const Vec3 dd = p - rim;
    return {dd.length() * (h < 0 ? -1.0f : 1.0f), dd.normalized()};
  }
  Aabb bounds() const override {
    const Vec3 r{r_, r_, r_};
    return {c_ - r, c_ + r};
  }

 private:
  Vec3 c_;
  Vec3 n_;
  float r_;
};

class PlaneDomain final : public Domain {
 public:
  PlaneDomain(Vec3 p, Vec3 n) : p_(p), n_(n.normalized()) {}
  DomainKind kind() const override { return DomainKind::kPlane; }
  Vec3 generate(Rng& rng) const override {
    // Sample a unit disc around the anchor point: a plane is unbounded, so
    // "uniform on the plane" is taken near the anchor as McAllister does.
    return p_ + rng.in_disc(1.0f, n_);
  }
  bool within(Vec3 p) const override { return (p - p_).dot(n_) < 0.0f; }
  SurfaceHit surface(Vec3 p) const override {
    return {(p - p_).dot(n_), n_};
  }
  void surface_n(std::span<const Vec3> points,
                 std::span<SurfaceHit> hits) const override {
    for (std::size_t i = 0; i < points.size(); ++i) {
      hits[i] = {(points[i] - p_).dot(n_), n_};
    }
  }
  Aabb bounds() const override { return Aabb::infinite(); }

 private:
  Vec3 p_;
  Vec3 n_;
};

class CylinderDomain final : public Domain {
 public:
  CylinderDomain(Vec3 a, Vec3 b, float r)
      : a_(a), axis_(b - a), r_(r) {
    len_ = axis_.length();
    dir_ = len_ > 0 ? axis_ / len_ : Vec3{0, 1, 0};
  }
  DomainKind kind() const override { return DomainKind::kCylinder; }
  Vec3 generate(Rng& rng) const override {
    const float t = rng.next_float();
    return a_ + axis_ * t + rng.in_disc(r_, dir_);
  }
  bool within(Vec3 p) const override {
    const float h = (p - a_).dot(dir_);
    if (h < 0 || h > len_) return false;
    const Vec3 radial = (p - a_) - dir_ * h;
    return radial.length2() <= r_ * r_;
  }
  SurfaceHit surface(Vec3 p) const override {
    const float h = std::clamp((p - a_).dot(dir_), 0.0f, len_);
    const Vec3 on_axis = a_ + dir_ * h;
    const Vec3 radial = p - on_axis;
    const float rad = radial.length();
    return {rad - r_, rad > 0 ? radial / rad : Vec3{1, 0, 0}};
  }
  Aabb bounds() const override {
    Aabb b = Aabb::empty();
    const Vec3 r{r_, r_, r_};
    b.extend(a_ - r);
    b.extend(a_ + r);
    b.extend(a_ + axis_ - r);
    b.extend(a_ + axis_ + r);
    return b;
  }

 private:
  Vec3 a_;
  Vec3 axis_;
  Vec3 dir_;
  float len_ = 0;
  float r_;
};

}  // namespace

DomainPtr make_point(Vec3 p) { return std::make_shared<PointDomain>(p); }
DomainPtr make_line(Vec3 a, Vec3 b) {
  return std::make_shared<LineDomain>(a, b);
}
DomainPtr make_box(Vec3 lo, Vec3 hi) {
  return std::make_shared<BoxDomain>(lo, hi);
}
DomainPtr make_sphere(Vec3 center, float radius) {
  return std::make_shared<SphereDomain>(center, radius);
}
DomainPtr make_disc(Vec3 center, Vec3 normal, float radius) {
  return std::make_shared<DiscDomain>(center, normal, radius);
}
DomainPtr make_plane(Vec3 point, Vec3 normal) {
  return std::make_shared<PlaneDomain>(point, normal);
}
DomainPtr make_cylinder(Vec3 a, Vec3 b, float radius) {
  return std::make_shared<CylinderDomain>(a, b, radius);
}

}  // namespace psanim::psys
