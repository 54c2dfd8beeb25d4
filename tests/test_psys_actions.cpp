// Tests for particle actions: each action's behaviour, the §3.1.5
// classification, kill semantics and effect presets.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "psys/action_list.hpp"
#include "psys/actions.hpp"
#include "psys/effects.hpp"

namespace psanim::psys {
namespace {

Particle at(Vec3 pos, Vec3 vel = {}) {
  Particle p;
  p.pos = pos;
  p.prev_pos = pos;
  p.vel = vel;
  return p;
}

ActionContext ctx_with(Rng& rng, float dt = 0.1f) {
  return ActionContext{dt, &rng, 0};
}

TEST(Source, GeneratesRateParticlesWithTemplate) {
  Source::Params params;
  params.rate = 50;
  params.position_domain = make_box({-1, 5, -1}, {1, 6, 1});
  params.velocity_domain = make_point({0, -2, 0});
  params.color = {1, 0, 0};
  params.size = 0.2f;
  params.lifetime = 3.0f;
  const Source src(params);

  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  std::vector<Particle> out;
  src.generate(out, ctx);
  ASSERT_EQ(out.size(), 50u);
  for (const auto& p : out) {
    EXPECT_GE(p.pos.y, 5.0f);
    EXPECT_LE(p.pos.y, 6.0f);
    EXPECT_EQ(p.vel, (Vec3{0, -2, 0}));
    EXPECT_EQ(p.color, (Vec3{1, 0, 0}));
    EXPECT_FLOAT_EQ(p.age, 0.0f);
    EXPECT_FLOAT_EQ(p.lifetime, 3.0f);
    EXPECT_FALSE(p.dead());
  }
}

TEST(Source, LifetimeJitterStaysInRange) {
  Source::Params params;
  params.rate = 200;
  params.position_domain = make_point({0, 0, 0});
  params.velocity_domain = make_point({0, 0, 0});
  params.lifetime = 10.0f;
  params.lifetime_jitter = 2.0f;
  const Source src(params);
  Rng rng(2);
  ActionContext ctx = ctx_with(rng);
  std::vector<Particle> out;
  src.generate(out, ctx);
  for (const auto& p : out) {
    EXPECT_GE(p.lifetime, 8.0f);
    EXPECT_LE(p.lifetime, 12.0f);
  }
}

TEST(Source, RequiresDomains) {
  Source::Params params;
  params.rate = 1;
  EXPECT_THROW(Source{params}, std::invalid_argument);
  params.position_domain = make_point({0, 0, 0});
  EXPECT_THROW(Source{params}, std::invalid_argument);
}

TEST(Source, IsCreateClassAndNoOpOnExisting) {
  Source::Params params;
  params.rate = 1;
  params.position_domain = make_point({0, 0, 0});
  params.velocity_domain = make_point({0, 0, 0});
  const Source src(params);
  EXPECT_EQ(src.cls(), ActionClass::kCreate);
  std::vector<Particle> ps{at({1, 2, 3}, {4, 5, 6})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  src.apply(ps, ctx);
  EXPECT_EQ(ps[0].pos, (Vec3{1, 2, 3}));
  EXPECT_EQ(ps[0].vel, (Vec3{4, 5, 6}));
}

TEST(Gravity, AddsGDt) {
  std::vector<Particle> ps{at({0, 0, 0}, {1, 0, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 0.5f);
  Gravity({0, -10, 0}).apply(ps, ctx);
  EXPECT_EQ(ps[0].vel, (Vec3{1, -5, 0}));
  EXPECT_EQ(ps[0].pos, (Vec3{0, 0, 0}));  // gravity never moves (§3.2.2)
}

TEST(Gravity, SkipsDeadParticles) {
  std::vector<Particle> ps{at({0, 0, 0})};
  ps[0].kill();
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  Gravity({0, -10, 0}).apply(ps, ctx);
  EXPECT_EQ(ps[0].vel, Vec3{});
}

TEST(RandomAccel, PerturbsWithinDomainScale) {
  std::vector<Particle> ps(100, at({0, 0, 0}));
  Rng rng(3);
  ActionContext ctx = ctx_with(rng, 1.0f);
  RandomAccel(make_sphere({0, 0, 0}, 2.0f)).apply(ps, ctx);
  bool any_changed = false;
  for (const auto& p : ps) {
    EXPECT_LE(p.vel.length(), 2.0f + 1e-4f);
    any_changed |= p.vel.length2() > 0;
  }
  EXPECT_TRUE(any_changed);
}

// --- the batched domain queries keep the per-particle semantics ---------

constexpr std::size_t kSpanSizes[] = {0, 1, 255, 256, 257, 1000};

/// `n` particles around the y = 0 plane, heading every which way, with
/// every third one dead.
std::vector<Particle> mixed_span(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Particle> ps;
  for (std::size_t i = 0; i < n; ++i) {
    Particle p = at(rng.in_box({-2, -0.5f, -2}, {2, 1, 2}),
                    rng.in_box({-3, -6, -3}, {3, 2, 3}));
    if (i % 3 == 2) p.kill();
    ps.push_back(p);
  }
  return ps;
}

void expect_same_bits(const std::vector<Particle>& a,
                      const std::vector<Particle>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(Particle)), 0) << "particle "
                                                              << i;
  }
}

/// The per-particle loops the batched actions replaced.
void reference_random_accel(const Domain& d, std::span<Particle> ps,
                            Rng& rng, float dt) {
  for (auto& p : ps) {
    if (p.dead()) continue;
    p.vel += d.generate(rng) * dt;
  }
}

void reference_bounce(const Domain& d, float restitution, float friction,
                      std::span<Particle> ps, float dt) {
  for (auto& p : ps) {
    if (p.dead()) continue;
    const SurfaceHit hit = d.surface(p.pos + p.vel * dt);
    if (hit.signed_distance >= 0.0f) continue;
    const float vn = p.vel.dot(hit.normal);
    if (vn >= 0.0f) continue;
    const Vec3 normal_part = hit.normal * vn;
    const Vec3 tangent_part = p.vel - normal_part;
    p.vel = tangent_part * (1.0f - friction) - normal_part * restitution;
  }
}

TEST(RandomAccel, BatchedSamplingMatchesPerParticleLoop) {
  // The sphere has its own generate_n; the box uses the default loop.
  for (const DomainPtr& d :
       {make_sphere({0, 0, 0}, 1.2f), make_box({-1, -2, -1}, {1, 0, 1})}) {
    for (const std::size_t n : kSpanSizes) {
      SCOPED_TRACE(to_string(d->kind()) + " n=" + std::to_string(n));
      std::vector<Particle> want = mixed_span(n, n);
      std::vector<Particle> got = want;
      Rng ref_rng(31 + n);
      Rng rng(31 + n);
      reference_random_accel(*d, want, ref_rng, 0.05f);
      ActionContext ctx = ctx_with(rng, 0.05f);
      RandomAccel(d).apply(got, ctx);
      expect_same_bits(got, want);
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
    }
  }
}

TEST(RandomAccel, RngStateCarriesAcrossSlicesLikeFusedPasses) {
  // FusedPasses applies one pass, with one RNG, slice after slice: the
  // batched sampler must leave the stream exactly where the per-particle
  // loop did, or every later slice shifts.
  const auto d = make_sphere({0, 0, 0}, 1.0f);
  std::vector<std::vector<Particle>> want;
  for (const std::size_t n : kSpanSizes) want.push_back(mixed_span(n, 7 * n));
  auto got = want;
  Rng ref_rng(8);
  Rng rng(8);
  ActionContext ctx = ctx_with(rng, 0.1f);
  const RandomAccel action(d);
  for (std::size_t s = 0; s < want.size(); ++s) {
    reference_random_accel(*d, want[s], ref_rng, 0.1f);
    action.apply(got[s], ctx);
  }
  for (std::size_t s = 0; s < want.size(); ++s) {
    SCOPED_TRACE(s);
    expect_same_bits(got[s], want[s]);
  }
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
}

TEST(Bounce, BatchedSurfaceQueriesMatchPerParticleLoop) {
  // The plane (tilted, off the origin) has its own surface_n; the sphere
  // uses the default loop.
  for (const DomainPtr& d : {make_plane({0.3f, 0.1f, -0.2f}, {0.2f, 1, 0.1f}),
                             make_sphere({0, -3, 0}, 3.2f)}) {
    for (const std::size_t n : kSpanSizes) {
      SCOPED_TRACE(to_string(d->kind()) + " n=" + std::to_string(n));
      const std::vector<Particle> before = mixed_span(n, 100 + n);
      std::vector<Particle> want = before;
      std::vector<Particle> got = before;
      reference_bounce(*d, 0.3f, 0.2f, want, 0.1f);
      std::size_t bounced = 0;
      for (std::size_t i = 0; i < n; ++i) {
        bounced += want[i].vel == before[i].vel ? 0 : 1;
      }
      if (n >= 255) {
        EXPECT_GT(bounced, 0u);  // the comparison is not vacuous
      }
      Rng rng(1);
      ActionContext ctx = ctx_with(rng, 0.1f);
      Bounce(d, 0.3f, 0.2f).apply(got, ctx);
      expect_same_bits(got, want);
      EXPECT_EQ(rng.next_u64(), Rng(1).next_u64());  // Bounce draws nothing
    }
  }
}

TEST(Damping, ExponentialInDt) {
  std::vector<Particle> ps{at({0, 0, 0}, {8, 0, 0})};
  Rng rng(1);
  ActionContext half = ctx_with(rng, 1.0f);
  Damping(0.5f).apply(ps, half);
  EXPECT_NEAR(ps[0].vel.x, 4.0f, 1e-5f);
  ActionContext quarter = ctx_with(rng, 2.0f);
  Damping(0.5f).apply(ps, quarter);
  EXPECT_NEAR(ps[0].vel.x, 1.0f, 1e-5f);
}

TEST(SpeedLimit, ClampsBothEnds) {
  std::vector<Particle> ps{at({0, 0, 0}, {10, 0, 0}),
                           at({0, 0, 0}, {0.1f, 0, 0}),
                           at({0, 0, 0}, {0, 3, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  SpeedLimit(1.0f, 5.0f).apply(ps, ctx);
  EXPECT_NEAR(ps[0].vel.length(), 5.0f, 1e-5f);
  EXPECT_NEAR(ps[1].vel.length(), 1.0f, 1e-5f);
  EXPECT_NEAR(ps[2].vel.length(), 3.0f, 1e-5f);  // already in range
}

TEST(Bounce, ReflectsApproachingParticles) {
  // Heading into the ground plane at -2 in y.
  std::vector<Particle> ps{at({0, 0.05f, 0}, {1, -2, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 0.1f);
  Bounce(make_plane({0, 0, 0}, {0, 1, 0}), /*restitution=*/0.5f,
         /*friction=*/0.25f)
      .apply(ps, ctx);
  EXPECT_NEAR(ps[0].vel.y, 1.0f, 1e-5f);   // -2 * -0.5
  EXPECT_NEAR(ps[0].vel.x, 0.75f, 1e-5f);  // tangential * (1 - friction)
}

TEST(Bounce, LeavesSeparatingParticlesAlone) {
  std::vector<Particle> ps{at({0, -0.5f, 0}, {0, 3, 0})};  // below, rising
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 0.1f);
  Bounce(make_plane({0, 0, 0}, {0, 1, 0}), 0.5f).apply(ps, ctx);
  EXPECT_EQ(ps[0].vel, (Vec3{0, 3, 0}));
}

TEST(Sink, KillsInsideRegion) {
  std::vector<Particle> ps{at({0, -1, 0}), at({0, 1, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  Sink(make_plane({0, 0, 0}, {0, 1, 0}), /*kill_inside=*/true).apply(ps, ctx);
  EXPECT_TRUE(ps[0].dead());
  EXPECT_FALSE(ps[1].dead());
  EXPECT_EQ(ctx.killed, 1u);
}

TEST(Sink, KillOutsideMode) {
  std::vector<Particle> ps{at({0, 0, 0}), at({9, 9, 9})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  Sink(make_sphere({0, 0, 0}, 1.0f), /*kill_inside=*/false).apply(ps, ctx);
  EXPECT_FALSE(ps[0].dead());
  EXPECT_TRUE(ps[1].dead());
}

TEST(KillOld, UsesPerParticleLifetime) {
  std::vector<Particle> ps{at({0, 0, 0}), at({0, 0, 0})};
  ps[0].age = 5.0f;
  ps[0].lifetime = 4.0f;
  ps[1].age = 5.0f;
  ps[1].lifetime = 6.0f;
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  KillOld().apply(ps, ctx);
  EXPECT_TRUE(ps[0].dead());
  EXPECT_FALSE(ps[1].dead());
}

TEST(KillOld, FixedCutoffOverridesLifetime) {
  std::vector<Particle> ps{at({0, 0, 0})};
  ps[0].age = 3.0f;
  ps[0].lifetime = 10.0f;
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  KillOld(2.0f).apply(ps, ctx);
  EXPECT_TRUE(ps[0].dead());
}

TEST(KillOld, ImmortalWhenNoLifetime) {
  std::vector<Particle> ps{at({0, 0, 0})};
  ps[0].age = 1e6f;
  ps[0].lifetime = 0.0f;
  Rng rng(1);
  ActionContext ctx = ctx_with(rng);
  KillOld().apply(ps, ctx);
  EXPECT_FALSE(ps[0].dead());
}

TEST(OrbitPoint, PullsTowardCenter) {
  std::vector<Particle> ps{at({2, 0, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 1.0f);
  OrbitPoint({0, 0, 0}, 4.0f).apply(ps, ctx);
  EXPECT_LT(ps[0].vel.x, 0.0f);
  EXPECT_NEAR(ps[0].vel.y, 0.0f, 1e-6f);
}

TEST(Vortex, AccelerationIsTangential) {
  std::vector<Particle> ps{at({1, 0, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 1.0f);
  Vortex({0, 0, 0}, {0, 1, 0}, 2.0f).apply(ps, ctx);
  // Tangent of +y axis at (1,0,0) is (0,0,-1) or (0,0,1) depending on
  // handedness; either way no radial or axial component.
  EXPECT_NEAR(ps[0].vel.x, 0.0f, 1e-5f);
  EXPECT_NEAR(ps[0].vel.y, 0.0f, 1e-5f);
  EXPECT_GT(std::abs(ps[0].vel.z), 0.1f);
}

TEST(Jet, OnlyActsInsideRegion) {
  std::vector<Particle> ps{at({0, 0, 0}), at({5, 0, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 1.0f);
  Jet(make_sphere({0, 0, 0}, 1.0f), {0, 9, 0}).apply(ps, ctx);
  EXPECT_EQ(ps[0].vel, (Vec3{0, 9, 0}));
  EXPECT_EQ(ps[1].vel, Vec3{});
}

TEST(FadeGrowTargetColor, PropertyModifiers) {
  std::vector<Particle> ps{at({0, 0, 0})};
  ps[0].alpha = 1.0f;
  ps[0].size = 1.0f;
  ps[0].color = {0, 0, 0};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 1.0f);
  Fade(0.5f).apply(ps, ctx);
  EXPECT_NEAR(ps[0].alpha, 0.5f, 1e-5f);
  Grow(-2.0f).apply(ps, ctx);
  EXPECT_FLOAT_EQ(ps[0].size, 0.0f);  // clamped at zero
  TargetColor({1, 1, 1}, 0.5f).apply(ps, ctx);
  EXPECT_NEAR(ps[0].color.x, 0.5f, 1e-5f);
}

TEST(Move, IntegratesAndAges) {
  std::vector<Particle> ps{at({1, 1, 1}, {2, 0, -4})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 0.5f);
  Move().apply(ps, ctx);
  EXPECT_EQ(ps[0].prev_pos, (Vec3{1, 1, 1}));
  EXPECT_EQ(ps[0].pos, (Vec3{2, 1, -1}));
  EXPECT_FLOAT_EQ(ps[0].age, 0.5f);
}

TEST(Move, IsMoveClassOrientationFollowsVelocity) {
  const Move mv;
  EXPECT_EQ(mv.cls(), ActionClass::kMove);
  std::vector<Particle> ps{at({0, 0, 0}, {0, -3, 0})};
  Rng rng(1);
  ActionContext ctx = ctx_with(rng, 0.1f);
  mv.apply(ps, ctx);
  EXPECT_NEAR(ps[0].up.y, -1.0f, 1e-5f);
}

TEST(ActionList, BuildsAndClassifies) {
  ActionList al;
  Source::Params sp;
  sp.rate = 10;
  sp.position_domain = make_point({0, 0, 0});
  sp.velocity_domain = make_point({0, 0, 0});
  al.add<Source>(sp);
  al.add<Gravity>(Vec3{0, -9.8f, 0});
  al.add<Move>();
  EXPECT_EQ(al.size(), 3u);
  EXPECT_EQ(al.sources().size(), 1u);
  EXPECT_EQ(al.creation_rate(), 10u);
  EXPECT_GT(al.modify_move_weight(), 0.0);
}

// --- effect presets: one short roll-forward each ---

std::vector<Particle> roll(const ParticleSystem& sys, int frames,
                           float dt = 1.0f / 30.0f) {
  std::vector<Particle> ps;
  Rng base(11);
  for (int f = 0; f < frames; ++f) {
    Rng rng = base.derive(static_cast<std::uint64_t>(f));
    ActionContext ctx{dt, &rng, 0};
    for (const Source* src : sys.actions().sources()) {
      src->generate(ps, ctx);
    }
    for (const auto& a : sys.actions()) {
      if (a->cls() == ActionClass::kCreate) continue;
      a->apply(ps, ctx);
    }
    std::erase_if(ps, [](const Particle& p) { return p.dead(); });
  }
  return ps;
}

TEST(FusedPasses, MatchesPerActionReferenceLoop) {
  // The fused executor (all actions per slice, one store walk) must be
  // bit-identical to the naive one (all slices per action): same particle
  // state, same per-action RNG consumption, same kill counts.
  ActionList list;
  Source::Params sp;
  sp.rate = 5;
  sp.position_domain = make_box({-1, 5, -1}, {1, 6, 1});
  sp.velocity_domain = make_point({0, -2, 0});
  list.add<Source>(sp);  // skipped by both executors
  list.add<Gravity>(Vec3{0, -9.8f, 0});
  list.add<RandomAccel>(make_sphere({0, 0, 0}, 1.0f));
  list.add<Damping>(0.97f);
  list.add<KillOld>();
  list.add<Move>();

  // Two "slices" with a mix of live, short-lived and dead particles.
  Rng init(99);
  auto make_slice = [&](std::size_t n) {
    std::vector<Particle> out;
    for (std::size_t i = 0; i < n; ++i) {
      Particle p = at(init.in_box({-5, 0, -5}, {5, 8, 5}),
                      init.in_unit_ball() * 2.0f);
      p.lifetime = (i % 7 == 0) ? 0.01f : 10.0f;  // some die under KillOld
      p.age = 1.0f;
      out.push_back(p);
    }
    return out;
  };
  std::vector<Particle> ref1 = make_slice(40);
  std::vector<Particle> ref2 = make_slice(25);
  std::vector<Particle> fus1 = ref1;
  std::vector<Particle> fus2 = ref2;

  const float dt = 0.05f;
  auto rng_for = [](std::size_t index) {
    return Rng(1234).derive(index, 9);
  };

  // Reference: one pass per action over every slice, exactly the
  // pre-fusion executor (per-action RNG stream spans the slices).
  std::size_t ref_killed = 0;
  std::size_t index = 0;
  for (const auto& action : list) {
    ++index;
    if (action->cls() == ActionClass::kCreate) continue;
    Rng rng = rng_for(index);
    ActionContext ctx{dt, &rng, 0};
    action->apply(ref1, ctx);
    action->apply(ref2, ctx);
    ref_killed += ctx.killed;
  }

  FusedPasses fused(list, dt, rng_for);
  ASSERT_EQ(fused.passes().size(), 5u);
  fused.apply(fus1);
  fused.apply(fus2);

  EXPECT_EQ(fused.killed(), ref_killed);
  EXPECT_GT(ref_killed, 0u);
  auto expect_same = [](const std::vector<Particle>& a,
                        const std::vector<Particle>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pos, b[i].pos);
      EXPECT_EQ(a[i].prev_pos, b[i].prev_pos);
      EXPECT_EQ(a[i].vel, b[i].vel);
      EXPECT_EQ(a[i].age, b[i].age);
      EXPECT_EQ(a[i].dead(), b[i].dead());
    }
  };
  expect_same(ref1, fus1);
  expect_same(ref2, fus2);
}

TEST(Effects, SnowFallsDownward) {
  const Aabb area({-10, 0, -10}, {10, 12, 10});
  const auto sys = snow_system(area, 200, 5.0f);
  const auto ps = roll(sys, 30);
  ASSERT_FALSE(ps.empty());
  double mean_vy = 0;
  for (const auto& p : ps) mean_vy += p.vel.y;
  EXPECT_LT(mean_vy / static_cast<double>(ps.size()), -0.5);
}

TEST(Effects, FountainRisesThenArcs) {
  const auto sys = fountain_system({0, 0, 0}, 200);
  const auto young = roll(sys, 2);
  ASSERT_FALSE(young.empty());
  // Fresh droplets head up.
  double up = 0;
  for (const auto& p : young) up += p.vel.y > 0 ? 1 : 0;
  EXPECT_GT(up / static_cast<double>(young.size()), 0.9);
  // After a while the population spreads horizontally.
  const auto old_ps = roll(sys, 40);
  Aabb extent = Aabb::empty();
  for (const auto& p : old_ps) extent.extend(p.pos);
  EXPECT_GT(extent.extent(0), 0.5f);
}

TEST(Effects, SmokeRisesAndFades) {
  const auto sys = smoke_system({0, 0, 0}, 100);
  const auto ps = roll(sys, 40);
  ASSERT_FALSE(ps.empty());
  double mean_y = 0, mean_alpha = 0;
  for (const auto& p : ps) {
    mean_y += p.pos.y;
    mean_alpha += p.alpha;
  }
  EXPECT_GT(mean_y / static_cast<double>(ps.size()), 0.3);
  EXPECT_LT(mean_alpha / static_cast<double>(ps.size()), 1.0);
}

TEST(Effects, FireworksExpandFromCenter) {
  const auto sys = fireworks_system({0, 10, 0}, 150);
  const auto ps = roll(sys, 10);
  ASSERT_FALSE(ps.empty());
  double mean_dist = 0;
  for (const auto& p : ps) mean_dist += (p.pos - Vec3{0, 10, 0}).length();
  EXPECT_GT(mean_dist / static_cast<double>(ps.size()), 0.5);
}

TEST(Effects, WaterfallDropsBelowLedge) {
  const auto sys = waterfall_system({0, 8, 0}, {2, 8, 0}, 150);
  const auto ps = roll(sys, 40);
  ASSERT_FALSE(ps.empty());
  float min_y = 100;
  for (const auto& p : ps) min_y = std::min(min_y, p.pos.y);
  EXPECT_LT(min_y, 6.0f);
}

TEST(Effects, KillOldBoundsPopulation) {
  // Steady state: population ~ rate * lifetime_frames.
  const Aabb area({-10, 0, -10}, {10, 12, 10});
  const auto sys = snow_system(area, 100, /*lifetime=*/0.5f);  // 15 frames
  const auto ps = roll(sys, 60);
  EXPECT_LE(ps.size(), 100u * 20u);
  EXPECT_GE(ps.size(), 100u * 10u);
}

}  // namespace
}  // namespace psanim::psys
