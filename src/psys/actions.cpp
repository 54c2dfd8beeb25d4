#include "psys/actions.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace psanim::psys {

namespace {
/// Every apply() needs an RNG only if it samples; assert when required.
Rng& require_rng(ActionContext& ctx, const char* who) {
  if (ctx.rng == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                ": ActionContext.rng must be set");
  }
  return *ctx.rng;
}

/// Particles per batched Domain query: one virtual call per chunk, with
/// the chunk's samples or hits in a fixed-size stack buffer.
constexpr std::size_t kDomainChunk = 256;

/// Visit `ps` in consecutive chunks of at most kDomainChunk particles.
template <typename Fn>
void for_each_chunk(std::span<Particle> ps, Fn&& fn) {
  for (std::size_t at = 0; at < ps.size(); at += kDomainChunk) {
    fn(ps.subspan(at, std::min(kDomainChunk, ps.size() - at)));
  }
}
}  // namespace

Source::Source(Params p) : params_(std::move(p)) {
  if (!params_.position_domain) {
    throw std::invalid_argument("Source: position_domain is required");
  }
  if (!params_.velocity_domain) {
    throw std::invalid_argument("Source: velocity_domain is required");
  }
}

void Source::generate(std::vector<Particle>& out, ActionContext& ctx) const {
  Rng& rng = require_rng(ctx, "Source::generate");
  out.reserve(out.size() + params_.rate);
  for (std::size_t i = 0; i < params_.rate; ++i) {
    Particle p;
    p.pos = params_.position_domain->generate(rng);
    p.prev_pos = p.pos;
    p.vel = params_.velocity_domain->generate(rng);
    p.up = params_.up;
    p.color = params_.color;
    if (params_.color_jitter != Vec3{}) {
      p.color += Vec3{rng.uniform(-params_.color_jitter.x, params_.color_jitter.x),
                      rng.uniform(-params_.color_jitter.y, params_.color_jitter.y),
                      rng.uniform(-params_.color_jitter.z, params_.color_jitter.z)};
    }
    p.size = params_.size;
    p.age = 0.0f;
    p.lifetime = params_.lifetime;
    if (params_.lifetime_jitter > 0) {
      p.lifetime += rng.uniform(-params_.lifetime_jitter, params_.lifetime_jitter);
    }
    p.mass = params_.mass;
    out.push_back(p);
  }
}

void Gravity::apply(std::span<Particle> ps, ActionContext& ctx) const {
  const Vec3 dv = g_ * ctx.dt;
  for (auto& p : ps) {
    if (p.dead()) continue;
    p.vel += dv;
  }
}

void RandomAccel::apply(std::span<Particle> ps, ActionContext& ctx) const {
  Rng& rng = require_rng(ctx, "RandomAccel");
  // One sample per live particle, drawn in particle order — the same
  // stream the per-particle generate() loop consumed.
  std::array<Vec3, kDomainChunk> samples;
  for_each_chunk(ps, [&](std::span<Particle> chunk) {
    std::size_t live = 0;
    for (const auto& p : chunk) live += p.dead() ? 0 : 1;
    domain_->generate_n(rng, std::span<Vec3>(samples.data(), live));
    std::size_t k = 0;
    for (auto& p : chunk) {
      if (p.dead()) continue;
      p.vel += samples[k++] * ctx.dt;
    }
  });
}

void Damping::apply(std::span<Particle> ps, ActionContext& ctx) const {
  const float k = std::pow(per_second_, ctx.dt);
  for (auto& p : ps) {
    if (p.dead()) continue;
    p.vel *= k;
  }
}

void SpeedLimit::apply(std::span<Particle> ps, ActionContext&) const {
  for (auto& p : ps) {
    if (p.dead()) continue;
    const float s2 = p.vel.length2();
    if (s2 <= 0) continue;
    const float s = std::sqrt(s2);
    if (s > max_) p.vel *= max_ / s;
    else if (s < min_) p.vel *= min_ / s;
  }
}

void Bounce::apply(std::span<Particle> ps, ActionContext& ctx) const {
  std::array<Vec3, kDomainChunk> next;
  std::array<SurfaceHit, kDomainChunk> hits;
  for_each_chunk(ps, [&](std::span<Particle> chunk) {
    // Where will each particle be after this frame's Move? (Queried for
    // dead particles too: surface() is pure and their hits go unused.)
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      next[i] = chunk[i].pos + chunk[i].vel * ctx.dt;
    }
    obstacle_->surface_n(std::span<const Vec3>(next.data(), chunk.size()),
                         hits);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      Particle& p = chunk[i];
      if (p.dead()) continue;
      const SurfaceHit& hit = hits[i];
      if (hit.signed_distance >= 0.0f) continue;  // not penetrating
      const float vn = p.vel.dot(hit.normal);
      if (vn >= 0.0f) continue;  // already separating
      const Vec3 normal_part = hit.normal * vn;
      const Vec3 tangent_part = p.vel - normal_part;
      p.vel = tangent_part * (1.0f - friction_) - normal_part * restitution_;
    }
  });
}

void Sink::apply(std::span<Particle> ps, ActionContext& ctx) const {
  for (auto& p : ps) {
    if (p.dead()) continue;
    if (region_->within(p.pos) == kill_inside_) {
      p.kill();
      ++ctx.killed;
    }
  }
}

void KillOld::apply(std::span<Particle> ps, ActionContext& ctx) const {
  for (auto& p : ps) {
    if (p.dead()) continue;
    const float limit = age_limit_ > 0 ? age_limit_ : p.lifetime;
    if (limit > 0 && p.age > limit) {
      p.kill();
      ++ctx.killed;
    }
  }
}

void OrbitPoint::apply(std::span<Particle> ps, ActionContext& ctx) const {
  for (auto& p : ps) {
    if (p.dead()) continue;
    const Vec3 d = center_ - p.pos;
    const float dist2 = d.length2() + epsilon_;
    p.vel += d * (magnitude_ * ctx.dt / (dist2 * std::sqrt(dist2)));
  }
}

void Vortex::apply(std::span<Particle> ps, ActionContext& ctx) const {
  for (auto& p : ps) {
    if (p.dead()) continue;
    const Vec3 r = p.pos - center_;
    const Vec3 radial = r - axis_ * r.dot(axis_);
    const float dist = radial.length();
    if (dist < 1e-4f) continue;
    const Vec3 tangent = axis_.cross(radial / dist);
    p.vel += tangent * (magnitude_ * ctx.dt / (1.0f + dist));
  }
}

void Jet::apply(std::span<Particle> ps, ActionContext& ctx) const {
  const Vec3 dv = accel_ * ctx.dt;
  for (auto& p : ps) {
    if (p.dead()) continue;
    if (region_->within(p.pos)) p.vel += dv;
  }
}

void Fade::apply(std::span<Particle> ps, ActionContext& ctx) const {
  const float k = std::pow(per_second_, ctx.dt);
  for (auto& p : ps) {
    if (p.dead()) continue;
    p.alpha *= k;
  }
}

void Grow::apply(std::span<Particle> ps, ActionContext& ctx) const {
  const float ds = per_second_ * ctx.dt;
  for (auto& p : ps) {
    if (p.dead()) continue;
    p.size = std::max(0.0f, p.size + ds);
  }
}

void TargetColor::apply(std::span<Particle> ps, ActionContext& ctx) const {
  const float t = std::min(1.0f, blend_ * ctx.dt);
  for (auto& p : ps) {
    if (p.dead()) continue;
    p.color = lerp(p.color, target_, t);
  }
}

void Move::apply(std::span<Particle> ps, ActionContext& ctx) const {
  for (auto& p : ps) {
    if (p.dead()) continue;
    p.prev_pos = p.pos;
    p.pos += p.vel * ctx.dt;
    p.age += ctx.dt;
    // Orientation follows the velocity for streak rendering.
    if (p.vel.length2() > 1e-12f) p.up = p.vel.normalized();
  }
}

}  // namespace psanim::psys
