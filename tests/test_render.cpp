// Tests for the software renderer: color math, framebuffer blending and
// depth, camera projection, splatting, image I/O, comparison utilities and
// the sort-last compositor's equivalence with single-pass rendering, and
// the image generator's cached backdrop; the splat's inline rounding and
// the frame-payload splat against the library calls and divisions they
// replace.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/image_generator.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "render/camera.hpp"
#include "render/compare.hpp"
#include "render/compositor.hpp"
#include "render/framebuffer.hpp"
#include "render/image_io.hpp"
#include "render/objects.hpp"
#include "render/splat.hpp"

namespace psanim::render {
namespace {

TEST(Color, Clamp01) {
  EXPECT_EQ(clamp01({-1, 0.5f, 2}), (Color{0, 0.5f, 1}));
}

TEST(Color, ToRgb8AppliesGamma) {
  EXPECT_EQ(to_rgb8({0, 0, 0}), (Rgb8{0, 0, 0}));
  EXPECT_EQ(to_rgb8({1, 1, 1}), (Rgb8{255, 255, 255}));
  // Mid-grey encodes brighter than linear because of gamma.
  EXPECT_GT(to_rgb8({0.5f, 0.5f, 0.5f}).r, 128);
}

TEST(Color, BlendOverInterpolates) {
  const Color out = blend_over({1, 0, 0}, 0.25f, {0, 1, 0});
  EXPECT_NEAR(out.x, 0.25f, 1e-6f);
  EXPECT_NEAR(out.y, 0.75f, 1e-6f);
}

TEST(Color, BlendAddAccumulates) {
  const Color out = blend_add({0.5f, 0, 0}, 1.0f, {0.7f, 0, 0});
  EXPECT_NEAR(out.x, 1.2f, 1e-6f);  // clamped only at write time
}

TEST(Color, LuminanceWeightsGreenHighest) {
  EXPECT_GT(luminance({0, 1, 0}), luminance({1, 0, 0}));
  EXPECT_GT(luminance({1, 0, 0}), luminance({0, 0, 1}));
}

TEST(Framebuffer, RejectsBadDimensions) {
  EXPECT_THROW(Framebuffer(0, 10), std::invalid_argument);
  EXPECT_THROW(Framebuffer(10, -1), std::invalid_argument);
}

TEST(Framebuffer, PutHonorsDepthTest) {
  Framebuffer fb(4, 4);
  fb.put(1, 1, {1, 0, 0}, 5.0f);
  fb.put(1, 1, {0, 1, 0}, 9.0f);  // farther: rejected
  EXPECT_EQ(fb.pixel(1, 1), (Color{1, 0, 0}));
  fb.put(1, 1, {0, 0, 1}, 2.0f);  // closer: wins
  EXPECT_EQ(fb.pixel(1, 1), (Color{0, 0, 1}));
  EXPECT_FLOAT_EQ(fb.depth(1, 1), 2.0f);
}

TEST(Framebuffer, OutOfBoundsWritesIgnored) {
  Framebuffer fb(4, 4);
  fb.put(-1, 0, {1, 1, 1}, 0.0f);
  fb.put(4, 0, {1, 1, 1}, 0.0f);
  fb.add(0, 7, {1, 1, 1}, 1.0f);
  for (const auto& c : fb.colors()) EXPECT_EQ(c, Color{});
}

TEST(Framebuffer, ClearResetsDepthAndColor) {
  Framebuffer fb(2, 2);
  fb.put(0, 0, {1, 1, 1}, 1.0f);
  fb.clear({0.5f, 0, 0});
  EXPECT_EQ(fb.pixel(0, 0), (Color{0.5f, 0, 0}));
  fb.put(0, 0, {0, 1, 0}, 100.0f);  // any depth beats cleared infinity
  EXPECT_EQ(fb.pixel(0, 0), (Color{0, 1, 0}));
}

TEST(Camera, CenterOfViewProjectsToImageCenter) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 50, 200, 100);
  const auto p = cam.project({0, 0, 0});
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 100.0f, 1e-3f);
  EXPECT_NEAR(p->y, 50.0f, 1e-3f);
  EXPECT_NEAR(p->depth, 5.0f, 1e-5f);
}

TEST(Camera, BehindCameraCulled) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 50, 200, 100);
  EXPECT_FALSE(cam.project({0, 0, 10}).has_value());
}

TEST(Camera, RightwardPointsProjectRight) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 50, 200, 100);
  const auto left = cam.project({-1, 0, 0});
  const auto right = cam.project({1, 0, 0});
  ASSERT_TRUE(left && right);
  EXPECT_LT(left->x, right->x);
  const auto up = cam.project({0, 1, 0});
  EXPECT_LT(up->y, 50.0f);  // image y grows downward
}

TEST(Camera, CloserMeansBiggerSplat) {
  const Camera cam({0, 0, 10}, {0, 0, 0}, {0, 1, 0}, 50, 200, 100);
  const auto near = cam.project({0, 0, 5});
  const auto far = cam.project({0, 0, -5});
  ASSERT_TRUE(near && far);
  EXPECT_GT(near->px_per_unit, far->px_per_unit);
}

TEST(Camera, FramingSeesTheScene) {
  const Camera cam = Camera::framing({0, 5, 0}, 10.0f, 320, 240);
  for (const Vec3 corner : {Vec3{-10, 0, 0}, Vec3{10, 10, 0}, Vec3{0, 5, 5}}) {
    const auto p = cam.project(corner);
    ASSERT_TRUE(p.has_value());
    EXPECT_GE(p->x, -40.0f);
    EXPECT_LE(p->x, 360.0f);
  }
}

psys::Particle splat_particle(Vec3 pos, float size) {
  psys::Particle p;
  p.pos = pos;
  p.color = {1, 1, 1};
  p.size = size;
  return p;
}

TEST(Splat, DepositsEnergyAtProjection) {
  Framebuffer fb(64, 64);
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 50, 64, 64);
  const auto stats =
      splat_particles(fb, cam, {{splat_particle({0, 0, 0}, 0.3f)}});
  EXPECT_EQ(stats.splatted, 1u);
  EXPECT_GT(luminance(fb.pixel(32, 32)), 0.0f);
}

TEST(Splat, DeadAndBehindCulled) {
  Framebuffer fb(64, 64);
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 50, 64, 64);
  auto dead = splat_particle({0, 0, 0}, 0.3f);
  dead.kill();
  const auto behind = splat_particle({0, 0, 9}, 0.3f);
  const std::vector<psys::Particle> ps{dead, behind};
  const auto stats = splat_particles(fb, cam, ps);
  EXPECT_EQ(stats.splatted, 0u);
  EXPECT_EQ(stats.culled, 2u);
}

TEST(Splat, AdditiveIsOrderIndependent) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 50, 64, 64);
  std::vector<psys::Particle> ps;
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    auto p = splat_particle(rng.in_unit_ball(), 0.2f);
    p.color = {rng.next_float(), rng.next_float(), rng.next_float()};
    ps.push_back(p);
  }
  Framebuffer fwd(64, 64);
  splat_particles(fwd, cam, ps);
  std::reverse(ps.begin(), ps.end());
  Framebuffer rev(64, 64);
  splat_particles(rev, cam, ps);
  EXPECT_TRUE(images_match(fwd, rev, 1e-4));
}

TEST(ImageIo, PpmHeaderAndSize) {
  Framebuffer fb(3, 2);
  const std::string doc = to_ppm(fb);
  EXPECT_EQ(doc.substr(0, 11), "P6\n3 2\n255\n");
  EXPECT_EQ(doc.size(), 11u + 3u * 2u * 3u);
}

TEST(ImageIo, PgmEncodesLuminance) {
  Framebuffer fb(2, 1);
  fb.put(0, 0, {1, 1, 1}, 0);
  const std::string doc = to_pgm(fb);
  EXPECT_EQ(doc.substr(0, 11), "P5\n2 1\n255\n");
  EXPECT_EQ(static_cast<unsigned char>(doc[11]), 255u);
  EXPECT_EQ(static_cast<unsigned char>(doc[12]), 0u);
}

TEST(ImageIo, WriteFailsLoudly) {
  Framebuffer fb(2, 2);
  EXPECT_THROW(write_ppm(fb, "/nonexistent_dir/x.ppm"), std::runtime_error);
}

TEST(Compare, IdenticalImagesMatch) {
  Framebuffer a(8, 8), b(8, 8);
  const ImageDiff d = compare(a, b);
  EXPECT_TRUE(d.same_dims);
  EXPECT_DOUBLE_EQ(d.max_abs, 0.0);
  EXPECT_EQ(d.psnr_db, 999.0);
  EXPECT_TRUE(images_match(a, b));
}

TEST(Compare, DetectsDifferencesAndDims) {
  Framebuffer a(8, 8), b(8, 8), c(4, 4);
  b.put(3, 3, {1, 0, 0}, 0);
  const ImageDiff d = compare(a, b);
  EXPECT_NEAR(d.max_abs, 1.0, 1e-9);
  EXPECT_FALSE(images_match(a, b));
  EXPECT_FALSE(compare(a, c).same_dims);
}

TEST(Compositor, AdditiveMatchesSinglePass) {
  const Camera cam({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 50, 64, 64);
  Rng rng(31);
  std::vector<psys::Particle> all;
  for (int i = 0; i < 60; ++i) {
    auto p = splat_particle(rng.in_unit_ball() * 2.0f, 0.15f);
    p.color = {rng.next_float(), rng.next_float(), rng.next_float()};
    all.push_back(p);
  }
  Framebuffer single(64, 64);
  splat_particles(single, cam, all);

  // Split across three "calculators", render separately, composite.
  std::vector<Framebuffer> parts(3, Framebuffer(64, 64));
  for (std::size_t i = 0; i < all.size(); ++i) {
    splat_particles(parts[i % 3], cam, {&all[i], 1});
  }
  Framebuffer composed(64, 64);
  composite_additive(composed, parts);
  EXPECT_TRUE(images_match(single, composed, 1e-4));
}

TEST(Compositor, DepthKeepsClosest) {
  Framebuffer a(2, 1), b(2, 1);
  a.put(0, 0, {1, 0, 0}, 5.0f);
  b.put(0, 0, {0, 1, 0}, 2.0f);
  Framebuffer out(2, 1);
  const Framebuffer parts_arr[] = {std::move(a), std::move(b)};
  composite_depth(out, parts_arr);
  EXPECT_EQ(out.pixel(0, 0), (Color{0, 1, 0}));
}

TEST(Compositor, RejectsMismatchedDims) {
  Framebuffer out(4, 4);
  const Framebuffer parts_arr[] = {Framebuffer(2, 2)};
  EXPECT_THROW(composite_additive(out, parts_arr), std::invalid_argument);
}

TEST(Compositor, FrameWireBytes) {
  const Framebuffer fb(10, 10);
  EXPECT_EQ(frame_wire_bytes(fb, false), 100 * sizeof(Color));
  EXPECT_EQ(frame_wire_bytes(fb, true), 100 * (sizeof(Color) + sizeof(float)));
}

TEST(Objects, GroundGridDrawsDepthTestedLines) {
  Framebuffer fb(64, 64);
  const Camera cam = Camera::framing({0, 0, 0}, 10.0f, 64, 64);
  draw_ground_grid(fb, cam, 0.0f, 8.0f, 8, {0.5f, 0.5f, 0.5f});
  std::size_t lit = 0;
  for (const auto& c : fb.colors()) lit += luminance(c) > 0 ? 1 : 0;
  EXPECT_GT(lit, 50u);
}

TEST(Objects, BoxAndSphereDraw) {
  Framebuffer fb(64, 64);
  const Camera cam = Camera::framing({0, 0, 0}, 5.0f, 64, 64);
  draw_box(fb, cam, Aabb({-1, -1, -1}, {1, 1, 1}), {1, 0, 0});
  draw_sphere(fb, cam, {0, 0, 0}, 1.5f, {0, 1, 0});
  std::size_t lit = 0;
  for (const auto& c : fb.colors()) lit += luminance(c) > 0 ? 1 : 0;
  EXPECT_GT(lit, 30u);
}

TEST(Objects, CachedBackdropEqualsAFreshClearAndGroundGrid) {
  // A frame is the backdrop copied over whatever the last frame left,
  // which must equal clearing it and drawing the grid again.
  struct View {
    Vec3 center;
    float radius;
    float ground;
  };
  for (const View v : {View{{0, 5, 0}, 10.0f, 0.0f},
                       View{{2, -1, 3}, 4.0f, -2.5f}}) {
    for (const auto& [w, h] : {std::pair{64, 48}, std::pair{200, 120}}) {
      core::Scene scene;
      scene.space = Aabb({-10, v.ground, -10}, {10, 20, 10});
      scene.look_center = v.center;
      scene.look_radius = v.radius;
      const Camera cam = Camera::framing(v.center, v.radius, w, h);
      const Framebuffer backdrop = core::draw_backdrop(scene, cam);

      Framebuffer frame(w, h);
      frame.put(w / 2, h / 2, {1, 1, 1}, 0.25f);
      frame.add(1, 1, {3, 2, 1}, 1.0f);
      frame = backdrop;

      Framebuffer fresh(w, h);
      fresh.clear({0.02f, 0.02f, 0.03f});
      draw_ground_grid(fresh, cam, v.ground, v.radius * 1.2f, 16,
                       {0.18f, 0.2f, 0.22f});

      SCOPED_TRACE(::testing::Message() << w << "x" << h << " radius "
                                        << v.radius);
      ASSERT_EQ(frame.pixel_count(), fresh.pixel_count());
      EXPECT_EQ(std::memcmp(frame.colors().data(), fresh.colors().data(),
                            fresh.pixel_count() * sizeof(Color)),
                0);
      EXPECT_EQ(std::memcmp(frame.depths().data(), fresh.depths().data(),
                            fresh.pixel_count() * sizeof(float)),
                0);
      // Not vacuous: the grid wrote depth-tested pixels.
      std::size_t drawn = 0;
      for (const float z : fresh.depths()) {
        drawn += z < std::numeric_limits<float>::infinity() ? 1 : 0;
      }
      EXPECT_GT(drawn, 50u);
    }
  }
}

// --- the splat's exact fast paths ---

TEST(LroundExact, MatchesStdLroundOnSpecials) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min(),
                            0.5f,
                            -0.5f,
                            std::nextafter(0.5f, 0.0f),
                            std::nextafter(-0.5f, 0.0f),
                            0x1p23f,
                            -0x1p23f,
                            0x1p31f,
                            -0x1p31f,
                            std::nextafter(0x1p62f, 0.0f),
                            -std::nextafter(0x1p62f, 0.0f),
                            0x1p62f,
                            -0x1p62f,
                            0x1p63f,
                            -0x1p63f,
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            inf,
                            -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN()};
  for (const float x : specials) {
    EXPECT_EQ(lround_exact(x), std::lround(x)) << x;
  }
}

TEST(LroundExact, MatchesStdLroundAroundEveryHalfInteger) {
  // Every h = n + 0.5 below 2^23 is a float; check it and its neighbours,
  // on both signs (8.4M half-integers, ~50M calls).
  const float inf = std::numeric_limits<float>::infinity();
  std::size_t mismatches = 0;
  float first_bad = 0.0f;
  for (std::uint32_t n = 0; n < (1u << 23); ++n) {
    const float h = static_cast<float>(n) + 0.5f;
    for (const float x : {h, std::nextafter(h, -inf), std::nextafter(h, inf),
                          -h, std::nextafter(-h, -inf),
                          std::nextafter(-h, inf)}) {
      if (lround_exact(x) != std::lround(x)) {
        if (mismatches++ == 0) first_bad = x;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at " << first_bad;
}

/// The unpack and splat as first written: divisions by 255 and
/// std::lround. The frame path must reproduce them bit for bit.
core::RenderVertex unpack_by_division(const core::PackedVertex& p) {
  core::RenderVertex v;
  v.pos = {p.x, p.y, p.z};
  v.color = {static_cast<float>(p.r) / 255.0f,
             static_cast<float>(p.g) / 255.0f,
             static_cast<float>(p.b) / 255.0f};
  v.alpha = 1.0f;
  v.size = static_cast<float>(p.size_q) / 255.0f * core::kMaxSplatSize;
  return v;
}

void splat_with_lround(Framebuffer& fb, const Camera& cam,
                       const std::vector<core::RenderVertex>& verts) {
  for (const auto& p : verts) {
    const auto proj = cam.project(p.pos);
    if (!proj) continue;
    const float radius_px = std::max(0.0f, p.size * proj->px_per_unit);
    const int cx = static_cast<int>(std::lround(proj->x));
    const int cy = static_cast<int>(std::lround(proj->y));
    if (radius_px <= 0.75f) {
      const float coverage =
          std::min(1.0f, radius_px * radius_px * 4.0f + 0.05f);
      fb.add(cx, cy, p.color, p.alpha * coverage);
      continue;
    }
    const int r = static_cast<int>(std::ceil(radius_px));
    const float inv_r2 = 1.0f / (radius_px * radius_px);
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        const float falloff =
            1.0f - static_cast<float>(dx * dx + dy * dy) * inv_r2;
        if (falloff > 0.0f) {
          fb.add(cx + dx, cy + dy, p.color, p.alpha * falloff);
        }
      }
    }
  }
}

TEST(Splat, FramePayloadSplatsBitForBitAsDecoded) {
  // Close framing: a world unit spans ~50 px, so sizes in [0, 0.5] give
  // both sub-pixel samples and discs tens of pixels wide.
  const Camera cam = Camera::framing({0, 0, 0}, 2.0f, 160, 120);
  Rng rng(23);
  std::vector<core::RenderVertex> verts;
  std::size_t large = 0;
  for (int i = 0; i < 3000; ++i) {
    core::RenderVertex v;
    v.pos = rng.in_box({-3, -3, -3}, {3, 3, 3});
    v.color = {rng.next_float(), rng.next_float(), rng.next_float()};
    v.alpha = rng.next_float();
    v.size = i % 3 == 0 ? rng.next_float() * core::kMaxSplatSize
                        : rng.next_float() * 0.02f;
    const auto proj = cam.project(v.pos);
    if (proj && v.size * proj->px_per_unit > 0.75f) ++large;
    verts.push_back(v);
  }
  ASSERT_GT(large, 100u);
  ASSERT_LT(large, 2000u);

  mp::Message m;
  m.payload = mp::Payload(core::encode_frame_vertices(7, verts).take());

  Framebuffer viewed(160, 120);
  const core::FrameVertexView view(m, 7);
  view.for_each_chunk([&](std::span<const core::RenderVertex> chunk) {
    splat_points(viewed, cam, chunk, BlendMode::kAdditive);
  });

  Framebuffer decoded(160, 120);
  const auto all = core::decode_frame_vertices(m, 7);
  splat_points(decoded, cam, std::span<const core::RenderVertex>(all),
               BlendMode::kAdditive);

  Framebuffer reference(160, 120);
  std::vector<core::RenderVertex> unpacked;
  for (const auto& v : verts) {
    unpacked.push_back(unpack_by_division(core::pack_vertex(v)));
  }
  splat_with_lround(reference, cam, unpacked);

  EXPECT_EQ(hash_framebuffer(viewed), hash_framebuffer(decoded));
  EXPECT_EQ(hash_framebuffer(viewed), hash_framebuffer(reference));
  EXPECT_NE(hash_framebuffer(viewed), hash_framebuffer(Framebuffer(160, 120)));
}

}  // namespace
}  // namespace psanim::render
