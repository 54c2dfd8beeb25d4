// Tests for the pDomain-style geometric domains: sampling stays inside,
// membership and surface queries are consistent, bounds are conservative.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "psys/source_domain.hpp"

namespace psanim::psys {
namespace {

struct DomainCase {
  std::string name;
  DomainPtr domain;
  bool bounded;  // bounds() finite
};

std::vector<DomainCase> all_domains() {
  return {
      {"point", make_point({1, 2, 3}), true},
      {"line", make_line({0, 0, 0}, {4, 0, 0}), true},
      {"box", make_box({-1, -2, -3}, {1, 2, 3}), true},
      {"sphere", make_sphere({0, 1, 0}, 2.0f), true},
      {"disc", make_disc({0, 0, 0}, {0, 1, 0}, 1.5f), true},
      {"plane", make_plane({0, 0, 0}, {0, 1, 0}), false},
      {"cylinder", make_cylinder({0, 0, 0}, {0, 3, 0}, 1.0f), true},
  };
}

class DomainParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DomainParamTest, GeneratedSamplesLieWithinBounds) {
  const DomainCase c = all_domains()[GetParam()];
  Rng rng(99);
  const Aabb bounds = c.domain->bounds();
  for (int i = 0; i < 300; ++i) {
    const Vec3 p = c.domain->generate(rng);
    // Allow tiny float slack at the boundary.
    const Aabb grown{bounds.lo - Vec3{1e-4f, 1e-4f, 1e-4f},
                     bounds.hi + Vec3{1e-4f, 1e-4f, 1e-4f}};
    EXPECT_TRUE(grown.contains(p)) << c.name << " sample " << i;
  }
}

TEST_P(DomainParamTest, SurfaceNormalIsUnit) {
  const DomainCase c = all_domains()[GetParam()];
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const Vec3 probe = rng.in_box({-5, -5, -5}, {5, 5, 5});
    const SurfaceHit hit = c.domain->surface(probe);
    EXPECT_NEAR(hit.normal.length(), 1.0f, 1e-4f) << c.name;
  }
}

TEST_P(DomainParamTest, FarPointsAreOutside) {
  const DomainCase c = all_domains()[GetParam()];
  if (!c.bounded) return;  // plane extends forever
  const Vec3 far{1e4f, 1e4f, 1e4f};
  EXPECT_FALSE(c.domain->within(far)) << c.name;
  EXPECT_GT(c.domain->surface(far).signed_distance, 0.0f) << c.name;
}

// --- the batched contract: generate_n / surface_n == the scalar calls ---

/// Bitwise equality (NaN payloads included), unlike operator==.
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

constexpr std::size_t kBatchSizes[] = {0, 1, 255, 256, 257, 1000};

TEST_P(DomainParamTest, GenerateNMatchesRepeatedGenerate) {
  const DomainCase c = all_domains()[GetParam()];
  for (const std::size_t n : kBatchSizes) {
    SCOPED_TRACE(c.name + " n=" + std::to_string(n));
    Rng scalar(4242 + n);
    Rng batched(4242 + n);
    std::vector<Vec3> want(n);
    for (auto& v : want) v = c.domain->generate(scalar);
    std::vector<Vec3> got(n);
    c.domain->generate_n(batched, got);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(got[i], want[i])) << "sample " << i;
    }
    // Exactly the same draws were consumed.
    EXPECT_EQ(batched.next_u64(), scalar.next_u64());
  }
}

void expect_surface_n_matches_surface(const Domain& d) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const Vec3 odd[] = {{kNan, 0, 0},   {0, kNan, 0},    {0, 0, kNan},
                      {kInf, 0, 0},   {0, -kInf, 0},   {kInf, kInf, kInf},
                      {kNan, kInf, 1}, {0, 0, 0},      {1, 2, 3},
                      {-1e30f, 1e30f, 0}};
  for (const std::size_t n : kBatchSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(77 + n);
    std::vector<Vec3> points(n);
    for (std::size_t i = 0; i < n; ++i) {
      points[i] = i % 5 == 0 ? odd[(i / 5) % std::size(odd)]
                             : rng.in_box({-5, -5, -5}, {5, 5, 5});
    }
    std::vector<SurfaceHit> got(n);
    d.surface_n(points, got);
    for (std::size_t i = 0; i < n; ++i) {
      const SurfaceHit want = d.surface(points[i]);
      ASSERT_TRUE(same_bits(got[i].signed_distance, want.signed_distance))
          << "point " << i;
      ASSERT_TRUE(same_bits(got[i].normal, want.normal)) << "point " << i;
    }
  }
}

TEST_P(DomainParamTest, SurfaceNMatchesSurfaceIncludingNonFinitePoints) {
  const DomainCase c = all_domains()[GetParam()];
  SCOPED_TRACE(c.name);
  expect_surface_n_matches_surface(*c.domain);
}

TEST(PlaneDomain, SurfaceNMatchesSurfaceOffTheOrigin) {
  // Tilted and offset, so every term of the distance rounds.
  expect_surface_n_matches_surface(
      *make_plane({0.3f, -1.7f, 2.1f}, {0.2f, 1.0f, -0.35f}));
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DomainParamTest,
                         ::testing::Range<std::size_t>(0, 7));

/// Implements only the scalar queries, like an out-of-tree Domain
/// decorator: the batched defaults must forward to them.
class ScalarOnlyDomain final : public Domain {
 public:
  explicit ScalarOnlyDomain(DomainPtr inner) : inner_(std::move(inner)) {}
  DomainKind kind() const override { return inner_->kind(); }
  Vec3 generate(Rng& rng) const override {
    ++generate_calls;
    return inner_->generate(rng);
  }
  bool within(Vec3 p) const override { return inner_->within(p); }
  SurfaceHit surface(Vec3 p) const override {
    ++surface_calls;
    return inner_->surface(p);
  }
  Aabb bounds() const override { return inner_->bounds(); }

  mutable std::size_t generate_calls = 0;
  mutable std::size_t surface_calls = 0;

 private:
  DomainPtr inner_;
};

TEST(DomainBatchDefaults, ForwardToTheScalarQueries) {
  const auto sphere = make_sphere({0, 1, 0}, 2.0f);
  const ScalarOnlyDomain wrapped(sphere);
  Rng a(5);
  Rng b(5);
  std::vector<Vec3> got(300);
  std::vector<Vec3> want(300);
  wrapped.generate_n(a, got);
  sphere->generate_n(b, want);
  EXPECT_EQ(wrapped.generate_calls, 300u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]));
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());

  std::vector<SurfaceHit> hits(got.size());
  wrapped.surface_n(got, hits);
  EXPECT_EQ(wrapped.surface_calls, got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const SurfaceHit want_hit = sphere->surface(got[i]);
    ASSERT_TRUE(same_bits(hits[i].signed_distance, want_hit.signed_distance));
    ASSERT_TRUE(same_bits(hits[i].normal, want_hit.normal));
  }
}

TEST(PointDomain, GeneratesExactPoint) {
  Rng rng(1);
  EXPECT_EQ(make_point({1, 2, 3})->generate(rng), (Vec3{1, 2, 3}));
}

TEST(LineDomain, SamplesAreCollinear) {
  Rng rng(2);
  const auto line = make_line({0, 0, 0}, {2, 2, 0});
  for (int i = 0; i < 100; ++i) {
    const Vec3 p = line->generate(rng);
    EXPECT_NEAR(p.x, p.y, 1e-5f);
    EXPECT_NEAR(p.z, 0.0f, 1e-6f);
  }
}

TEST(BoxDomain, SignedDistanceSigns) {
  const auto box = make_box({-1, -1, -1}, {1, 1, 1});
  EXPECT_LT(box->surface({0, 0, 0}).signed_distance, 0.0f);
  EXPECT_GT(box->surface({2, 0, 0}).signed_distance, 0.0f);
  EXPECT_NEAR(box->surface({2, 0, 0}).signed_distance, 1.0f, 1e-5f);
  // Inside, nearest face is +x at distance 0.2.
  const SurfaceHit h = box->surface({0.8f, 0, 0});
  EXPECT_NEAR(h.signed_distance, -0.2f, 1e-5f);
  EXPECT_EQ(h.normal, (Vec3{1, 0, 0}));
}

TEST(SphereDomain, SurfaceDistanceIsRadial) {
  const auto s = make_sphere({0, 0, 0}, 2.0f);
  EXPECT_NEAR(s->surface({3, 0, 0}).signed_distance, 1.0f, 1e-5f);
  EXPECT_NEAR(s->surface({1, 0, 0}).signed_distance, -1.0f, 1e-5f);
  EXPECT_EQ(s->surface({3, 0, 0}).normal, (Vec3{1, 0, 0}));
  EXPECT_TRUE(s->within({0, 0, 1.9f}));
  EXPECT_FALSE(s->within({0, 0, 2.1f}));
}

TEST(DiscDomain, HeightSignFollowsNormal) {
  const auto d = make_disc({0, 0, 0}, {0, 1, 0}, 1.0f);
  EXPECT_GT(d->surface({0, 0.5f, 0}).signed_distance, 0.0f);
  EXPECT_LT(d->surface({0, -0.5f, 0}).signed_distance, 0.0f);
  // Beyond the rim the distance is to the rim circle.
  EXPECT_NEAR(d->surface({2, 0, 0}).signed_distance, 1.0f, 1e-4f);
}

TEST(PlaneDomain, WithinMeansBehind) {
  const auto pl = make_plane({0, 0, 0}, {0, 1, 0});
  EXPECT_TRUE(pl->within({5, -0.1f, 3}));
  EXPECT_FALSE(pl->within({5, 0.1f, 3}));
  EXPECT_NEAR(pl->surface({0, 2, 0}).signed_distance, 2.0f, 1e-6f);
  EXPECT_NEAR(pl->surface({0, -2, 0}).signed_distance, -2.0f, 1e-6f);
}

TEST(PlaneDomain, SamplesLieOnPlane) {
  Rng rng(3);
  const auto pl = make_plane({0, 1, 0}, {0, 1, 0});
  for (int i = 0; i < 50; ++i) {
    EXPECT_NEAR(pl->generate(rng).y, 1.0f, 1e-5f);
  }
}

TEST(CylinderDomain, WithinChecksHeightAndRadius) {
  const auto cyl = make_cylinder({0, 0, 0}, {0, 2, 0}, 0.5f);
  EXPECT_TRUE(cyl->within({0.3f, 1.0f, 0}));
  EXPECT_FALSE(cyl->within({0.6f, 1.0f, 0}));   // outside radius
  EXPECT_FALSE(cyl->within({0.0f, 2.5f, 0}));   // above the cap
  EXPECT_NEAR(cyl->surface({1.5f, 1.0f, 0}).signed_distance, 1.0f, 1e-5f);
}

TEST(DomainKindToString, Names) {
  EXPECT_EQ(to_string(DomainKind::kSphere), "sphere");
  EXPECT_EQ(to_string(DomainKind::kCylinder), "cylinder");
}

}  // namespace
}  // namespace psanim::psys
