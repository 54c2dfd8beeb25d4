// Tests for the core model pieces below the role processes: domain
// decomposition, the wire protocol codecs and the exchange engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/decomposition.hpp"
#include "core/exchange.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "core/simulation.hpp"
#include "mp/buffer_pool.hpp"
#include "mp/runtime.hpp"
#include "render/camera.hpp"
#include "render/compare.hpp"
#include "render/splat.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace psanim::core {
namespace {

using psys::Particle;
using Bytes = std::vector<std::byte>;

Particle at_x(float x) {
  Particle p;
  p.pos = {x, 0, 0};
  return p;
}

// --- decomposition ---

TEST(Decomposition, UniformSplitMatchesFigure1) {
  // Figure 1: [-10, 10] into 4 domains -> edges at -5, 0, 5.
  const Decomposition d(0, -10, 10, 4);
  ASSERT_EQ(d.edges().size(), 3u);
  EXPECT_FLOAT_EQ(d.edges()[0], -5);
  EXPECT_FLOAT_EQ(d.edges()[1], 0);
  EXPECT_FLOAT_EQ(d.edges()[2], 5);
  EXPECT_EQ(d.domain_count(), 4);
}

TEST(Decomposition, OwnerOfCoversWholeAxis) {
  const Decomposition d(0, -10, 10, 4);
  EXPECT_EQ(d.owner_of(-100), 0);  // beyond the nominal space: edge domain
  EXPECT_EQ(d.owner_of(-7), 0);
  EXPECT_EQ(d.owner_of(-5), 1);  // boundary belongs to the right domain
  EXPECT_EQ(d.owner_of(0), 2);
  EXPECT_EQ(d.owner_of(4.9f), 2);
  EXPECT_EQ(d.owner_of(100), 3);
}

TEST(Decomposition, SingleDomainOwnsEverything) {
  const Decomposition d(0, -10, 10, 1);
  EXPECT_TRUE(d.edges().empty());
  EXPECT_EQ(d.owner_of(-1e5f), 0);
  EXPECT_EQ(d.owner_of(1e5f), 0);
  EXPECT_FLOAT_EQ(d.domain_lo(0), -Aabb::kHuge);
  EXPECT_FLOAT_EQ(d.domain_hi(0), Aabb::kHuge);
}

TEST(Decomposition, InfiniteSpaceCentralDomainPathology) {
  // Table 1's IS-SLB story: with 5 domains over +/-kHuge the whole
  // emission box [-10, 10] belongs to the central calculator.
  const Decomposition d = Decomposition::infinite_space(0, 5);
  EXPECT_EQ(d.owner_of(-10), 2);
  EXPECT_EQ(d.owner_of(0), 2);
  EXPECT_EQ(d.owner_of(10), 2);
  // Even counts split the box between the two central calculators.
  const Decomposition e = Decomposition::infinite_space(0, 4);
  EXPECT_EQ(e.owner_of(-1), 1);
  EXPECT_EQ(e.owner_of(1), 2);
}

TEST(Decomposition, SetEdgeClampsBetweenNeighbors) {
  Decomposition d(0, -10, 10, 4);  // edges -5, 0, 5
  d.set_edge(1, 3.0f);
  EXPECT_FLOAT_EQ(d.edges()[1], 3.0f);
  d.set_edge(1, 100.0f);  // beyond edge 2: clamps to 5
  EXPECT_FLOAT_EQ(d.edges()[1], 5.0f);
  d.set_edge(0, -100.0f);  // lowest edge can move far left
  EXPECT_LT(d.edges()[0], -50.0f);
}

TEST(Decomposition, DomainIntervalsAreContiguous) {
  const Decomposition d(0, 0, 100, 8);
  for (int i = 0; i + 1 < d.domain_count(); ++i) {
    EXPECT_FLOAT_EQ(d.domain_hi(i), d.domain_lo(i + 1));
  }
}

TEST(Decomposition, NominalShares) {
  const Decomposition d(0, 0, 100, 4);
  const auto shares = d.nominal_shares();
  ASSERT_EQ(shares.size(), 4u);
  for (const double s : shares) EXPECT_NEAR(s, 0.25, 1e-6);
}

TEST(Decomposition, EncodeDecodeRoundTrip) {
  Decomposition d(2, -3, 7, 5);
  d.set_edge(0, -2.5f);
  mp::Writer w;
  d.encode(w);
  mp::Reader r{std::span<const std::byte>(w.bytes())};
  const Decomposition back = Decomposition::decode(r);
  EXPECT_EQ(back, d);
}

TEST(Decomposition, RejectsBadArguments) {
  EXPECT_THROW(Decomposition(0, 5, 5, 2), std::invalid_argument);
  EXPECT_THROW(Decomposition(0, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW(Decomposition(5, 0, 1, 2), std::invalid_argument);
}

// --- wire codecs ---

TEST(Wire, BatchesRoundTrip) {
  std::vector<SystemBatch> batches(2);
  batches[0].system = 0;
  batches[0].particles = {at_x(1), at_x(2)};
  batches[1].system = 3;
  batches[1].particles = {at_x(-1)};
  mp::Message m;
  m.payload = encode_batches(7, batches).take();
  const auto back = decode_batches(m, 7);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].particles.size(), 2u);
  EXPECT_EQ(back[1].system, 3u);
  EXPECT_FLOAT_EQ(back[1].particles[0].pos.x, -1);
}

TEST(Wire, FrameMismatchThrows) {
  mp::Message m;
  m.payload = encode_batches(7, {}).take();
  EXPECT_THROW(decode_batches(m, 8), ProtocolError);
}

TEST(Wire, LoadReportRoundTrip) {
  const std::vector<LoadEntry> entries{
      {.system = 0, .particles = 100, .time_s = 0.5},
      {.system = 1, .particles = 0, .time_s = 0.0},
  };
  mp::Message m;
  m.payload = encode_load_report(3, entries).take();
  const auto back = decode_load_report(m, 3);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].particles, 100u);
  EXPECT_DOUBLE_EQ(back[0].time_s, 0.5);
}

TEST(Wire, OrdersAndEdgesRoundTrip) {
  const std::vector<OrderEntry> orders{
      {.system = 2, .is_send = 1, .partner = 4, .count = 77}};
  mp::Message m;
  m.payload = encode_orders(1, orders).take();
  const auto o = decode_orders(m, 1);
  ASSERT_EQ(o.size(), 1u);
  EXPECT_EQ(o[0].partner, 4);
  EXPECT_EQ(o[0].count, 77u);

  const std::vector<EdgeEntry> edges{{.system = 1, .edge_index = 2,
                                      .value = -3.5f}};
  mp::Message me;
  me.payload = encode_edges(1, edges).take();
  const auto e = decode_edges(me, 1);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_FLOAT_EQ(e[0].value, -3.5f);
}

TEST(Wire, RenderVertexPackIsLossyButClose) {
  RenderVertex v;
  v.pos = {1.5f, -2.25f, 3.0f};
  v.color = {0.2f, 0.6f, 1.0f};
  v.alpha = 0.5f;
  v.size = 0.1f;
  const RenderVertex back = unpack_vertex(pack_vertex(v));
  EXPECT_EQ(back.pos, v.pos);  // positions are exact
  // Colors come back premultiplied by alpha, to 8-bit precision.
  EXPECT_NEAR(back.color.x, 0.1f, 1.0f / 255);
  EXPECT_NEAR(back.color.y, 0.3f, 1.0f / 255);
  EXPECT_NEAR(back.color.z, 0.5f, 1.0f / 255);
  EXPECT_FLOAT_EQ(back.alpha, 1.0f);
  EXPECT_NEAR(back.size, 0.1f, kMaxSplatSize / 255);
}

TEST(Wire, FrameVerticesRoundTripCount) {
  std::vector<RenderVertex> verts(100);
  for (std::size_t i = 0; i < verts.size(); ++i) {
    verts[i].pos = {static_cast<float>(i), 0, 0};
  }
  mp::Message m;
  m.payload = encode_frame_vertices(9, verts).take();
  // 16 bytes per vertex plus control header (format magic + version),
  // frame number and length prefix.
  EXPECT_EQ(m.payload.size(), 2u + 4u + 8u + 100u * 16u);
  const auto back = decode_frame_vertices(m, 9);
  ASSERT_EQ(back.size(), 100u);
  EXPECT_FLOAT_EQ(back[42].pos.x, 42.0f);
}

TEST(Wire, FrameVerticesMatchTheFieldByFieldLayout) {
  // Oracle: the frame-vertex payload written one field at a time (header,
  // frame, count, then x y z r g b size_q per vertex). The bulk packer
  // must produce these exact bytes, and the payload view must read them
  // back as unpack_vertex of each record.
  const auto field_by_field = [](std::uint32_t frame,
                                 const std::vector<RenderVertex>& verts) {
    mp::Writer w;
    put_control_header(w);
    w.put(frame);
    w.put<std::uint64_t>(verts.size());
    for (const auto& v : verts) {
      const PackedVertex p = pack_vertex(v);
      w.put(p.x);
      w.put(p.y);
      w.put(p.z);
      w.put(p.r);
      w.put(p.g);
      w.put(p.b);
      w.put(p.size_q);
    }
    return w.take();
  };
  Rng rng(42);
  std::vector<RenderVertex> verts;
  for (int i = 0; i < 1000; ++i) {
    Particle p;
    p.pos = rng.in_box({-10, 0, -10}, {10, 10, 10});
    p.color = {rng.next_float(), rng.next_float(), rng.next_float()};
    p.alpha = rng.uniform(0.0f, 1.2f);
    p.size = rng.uniform(0.0f, 0.7f);
    verts.push_back(to_render_vertex(p));
  }
  const Bytes want = field_by_field(7, verts);
  EXPECT_EQ(encode_frame_vertices(7, verts).take(), want);

  mp::Message m;
  m.payload = want;

  const auto back = decode_frame_vertices(m, 7);
  ASSERT_EQ(back.size(), verts.size());
  for (std::size_t i = 0; i < verts.size(); ++i) {
    const RenderVertex want = unpack_vertex(pack_vertex(verts[i]));
    ASSERT_EQ(std::memcmp(&back[i].pos, &want.pos, sizeof want.pos), 0) << i;
    ASSERT_EQ(std::memcmp(&back[i].color, &want.color, sizeof want.color), 0)
        << i;
    ASSERT_EQ(back[i].alpha, want.alpha) << i;
    ASSERT_EQ(back[i].size, want.size) << i;
  }
}

TEST(Wire, PackVertexMapsNonFiniteInputsToDefinedBytes) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  RenderVertex v;
  v.color = {kNan, kInf, -kInf};
  v.alpha = 1.0f;
  v.size = kNan;
  PackedVertex p = pack_vertex(v);
  EXPECT_EQ(p.r, 0);    // NaN
  EXPECT_EQ(p.g, 255);  // +inf clamps high
  EXPECT_EQ(p.b, 0);    // -inf clamps low
  EXPECT_EQ(p.size_q, 0);

  v.color = {0.5f, 0.0f, 1.0f};
  v.alpha = kNan;  // NaN alpha poisons every channel
  v.size = kInf;
  p = pack_vertex(v);
  EXPECT_EQ(p.r, 0);
  EXPECT_EQ(p.g, 0);
  EXPECT_EQ(p.b, 0);
  EXPECT_EQ(p.size_q, 255);

  v.color = {0.0f, 0.5f, 1.0f};
  v.alpha = kInf;  // 0 * inf is NaN; the others overflow to +inf
  v.size = -kInf;
  p = pack_vertex(v);
  EXPECT_EQ(p.r, 0);
  EXPECT_EQ(p.g, 255);
  EXPECT_EQ(p.b, 255);
  EXPECT_EQ(p.size_q, 0);
}

TEST(Wire, PackVertexMatchesTheClampFormulaOnFiniteInputs) {
  // The quantizer before non-finite inputs were handled; defined (and
  // pinned by the golden corpus) for every finite input.
  const auto reference = [](float x) {
    const float c = x < 0 ? 0.0f : (x > 1 ? 1.0f : x);
    return static_cast<std::uint8_t>(c * 255.0f + 0.5f);
  };
  std::vector<float> inputs = {-1e30f, -1.0f, -0.0f, 0.0f, 1e-30f, 1.0f,
                               std::nextafter(1.0f, 2.0f), 2.0f, 1e30f,
                               std::numeric_limits<float>::max(),
                               -std::numeric_limits<float>::max(),
                               std::numeric_limits<float>::denorm_min()};
  for (int i = -1000; i <= 2000; ++i) inputs.push_back(i / 1000.0f);
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) inputs.push_back(rng.uniform(-0.5f, 1.5f));
  for (const float x : inputs) {
    RenderVertex v;
    v.color = {x, x, x};
    v.alpha = 1.0f;
    v.size = x * kMaxSplatSize;
    const PackedVertex p = pack_vertex(v);
    ASSERT_EQ(p.r, reference(x)) << x;
    ASSERT_EQ(p.size_q, reference(v.size / kMaxSplatSize)) << x;
  }
}

/// `n` particles with varied shading (sizes beyond kMaxSplatSize too), all
/// inside [0, 10) on x so they fit a store over that interval.
std::vector<Particle> shaded_particles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Particle> out(n);
  for (auto& p : out) {
    p.pos = {rng.uniform(0.0f, 10.0f), rng.uniform(-3.0f, 3.0f),
             rng.uniform(-3.0f, 3.0f)};
    p.color = {rng.next_float(), rng.next_float(), rng.next_float()};
    p.alpha = rng.uniform(0.0f, 1.2f);
    p.size = rng.uniform(0.0f, 0.7f);
  }
  return out;
}

std::vector<RenderVertex> snapshot_vertices(
    const std::vector<psys::SlicedStore>& stores) {
  std::vector<RenderVertex> verts;
  for (const auto& store : stores) {
    for (const auto& p : store.snapshot()) {
      verts.push_back(to_render_vertex(p));
    }
  }
  return verts;
}

TEST(Wire, FrameVerticesFromStoresMatchTheSnapshotEncoding) {
  // Several systems: an empty store, one with most slices empty (all its
  // particles in one narrow band), a one-slice store, and full ones.
  std::vector<std::vector<psys::SlicedStore>> cases;
  cases.emplace_back();  // no systems at all
  {
    std::vector<psys::SlicedStore> stores;
    stores.emplace_back(0, 0.0f, 10.0f, 8);  // empty
    stores.emplace_back(0, 0.0f, 10.0f, 8);
    auto band = shaded_particles(300, 1);
    for (auto& p : band) p.pos.x = 4.0f + p.pos.x * 0.05f;  // slices 3-4
    stores.back().insert_batch(band);
    stores.emplace_back(0, 0.0f, 10.0f, 1);
    stores.back().insert_batch(shaded_particles(257, 2));
    stores.emplace_back(0, 0.0f, 10.0f, 8);
    stores.back().insert_batch(shaded_particles(1000, 3));
    stores.emplace_back(0, 0.0f, 10.0f, 8);  // empty, last
    cases.push_back(std::move(stores));
  }
  {
    std::vector<psys::SlicedStore> stores;
    stores.emplace_back(0, 0.0f, 10.0f, 4);
    stores.emplace_back(0, 0.0f, 10.0f, 4);
    cases.push_back(std::move(stores));  // stores, but nothing in them
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    const auto& stores = cases[c];
    const Bytes direct =
        encode_frame_vertices(5, std::span<const psys::SlicedStore>(stores))
            .take();
    const Bytes via_snapshot =
        encode_frame_vertices(5, snapshot_vertices(stores)).take();
    EXPECT_EQ(direct, via_snapshot);
  }
}

TEST(Wire, ChunkedSplatMatchesSplattingTheDecodedFrame) {
  const auto cam = render::Camera::framing({5, 0, 0}, 8.0f, 64, 48);
  const std::size_t k = FrameVertexView::kChunk;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1, 2 * k - 1, 2 * k,
        2 * k + 1}) {
    SCOPED_TRACE(n);
    std::vector<RenderVertex> verts;
    for (const auto& p : shaded_particles(n, 40 + n)) {
      verts.push_back(to_render_vertex(p));
    }
    mp::Message m;
    m.payload = encode_frame_vertices(3, verts).take();

    render::Framebuffer whole(64, 48);
    const auto decoded = decode_frame_vertices(m, 3);
    render::splat_points(whole, cam, std::span<const RenderVertex>(decoded),
                         render::BlendMode::kAdditive);

    render::Framebuffer chunked(64, 48);
    const FrameVertexView view(m, 3);
    EXPECT_EQ(view.size(), n);
    std::size_t visited = 0;
    view.for_each_chunk([&](std::span<const RenderVertex> chunk) {
      EXPECT_LE(chunk.size(), k);
      EXPECT_FALSE(chunk.empty());
      visited += chunk.size();
      render::splat_points(chunked, cam, chunk, render::BlendMode::kAdditive);
    });
    EXPECT_EQ(visited, n);
    EXPECT_EQ(render::hash_framebuffer(chunked),
              render::hash_framebuffer(whole));
  }
}

TEST(Wire, RankHelpers) {
  EXPECT_EQ(calc_rank(0), 2);
  EXPECT_EQ(calc_index(calc_rank(5)), 5);
  EXPECT_EQ(world_size_for(8), 10);
}

// --- exchange engine ---

TEST(RouteCrossers, GroupsByOwnerAndKeepsHome) {
  const Decomposition d(0, -10, 10, 4);
  Outboxes outboxes(4);
  std::vector<Particle> back_home;
  // Self is calculator 1 (domain [-5, 0)).
  route_crossers(d, /*system=*/2, /*self=*/1,
                 {at_x(-8), at_x(-3), at_x(2), at_x(7)}, outboxes, back_home);
  ASSERT_EQ(back_home.size(), 1u);  // -3 still belongs to us
  EXPECT_FLOAT_EQ(back_home[0].pos.x, -3);
  ASSERT_EQ(outboxes[0].size(), 1u);
  EXPECT_EQ(outboxes[0][0].system, 2u);
  EXPECT_FLOAT_EQ(outboxes[0][0].particles[0].pos.x, -8);
  ASSERT_EQ(outboxes[2].size(), 1u);
  ASSERT_EQ(outboxes[3].size(), 1u);
  EXPECT_TRUE(outboxes[1].empty());
}

TEST(Exchange, AllToAllDeliversAndCounts) {
  // 3 calculators (ranks 2..4) exchange one particle ring-wise; manager
  // and imgen ranks idle.
  mp::Runtime rt(world_size_for(3), mp::zero_cost_fn(),
                 {.recv_timeout_s = 10.0});
  rt.run([](mp::Endpoint& ep) {
    if (ep.rank() < kFirstCalcRank) return;
    const int self = calc_index(ep.rank());
    Outboxes outboxes(3);
    const int target = (self + 1) % 3;
    outboxes[static_cast<std::size_t>(target)].push_back(
        SystemBatch{0, {at_x(static_cast<float>(self))}});
    std::vector<Particle> received;
    const auto stats = exchange_crossers(
        ep, /*frame=*/0, 3, self, std::move(outboxes),
        [&](psys::SystemId, std::vector<Particle>&& ps) {
          received.insert(received.end(), ps.begin(), ps.end());
        });
    EXPECT_EQ(stats.sent_particles, 1u);
    EXPECT_EQ(stats.received_particles, 1u);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_FLOAT_EQ(received[0].pos.x,
                    static_cast<float>((self + 2) % 3));
  });
}

TEST(Exchange, EmptyOutboxesStillSynchronize) {
  // The empty message IS the end-of-transmission marker; nobody blocks.
  mp::Runtime rt(world_size_for(4), mp::zero_cost_fn(),
                 {.recv_timeout_s = 10.0});
  rt.run([](mp::Endpoint& ep) {
    if (ep.rank() < kFirstCalcRank) return;
    const int self = calc_index(ep.rank());
    const auto stats = exchange_crossers(
        ep, 0, 4, self, Outboxes(4),
        [](psys::SystemId, std::vector<Particle>&&) { FAIL(); });
    EXPECT_EQ(stats.sent_particles, 0u);
    EXPECT_EQ(stats.received_particles, 0u);
    EXPECT_GT(stats.sent_bytes, 0u);  // markers still cost wire bytes
  });
}

TEST(Exchange, MissingEotIsDetectedAsTimeout) {
  // A buggy peer that never sends its (empty) exchange message must
  // surface as RecvTimeout — the failure mode §3.2.1 warns about.
  mp::Runtime rt(world_size_for(2), mp::zero_cost_fn(),
                 {.recv_timeout_s = 0.2});
  EXPECT_THROW(
      rt.run([](mp::Endpoint& ep) {
        if (ep.rank() != calc_rank(0)) return;  // calc 1 stays silent
        exchange_crossers(ep, 0, 2, 0, Outboxes(2),
                          [](psys::SystemId, std::vector<Particle>&&) {});
      }),
      mp::RecvTimeout);
}

// --- the buffer pool is host time only ---

struct SceneOutcome {
  double makespan_s = 0.0;
  std::uint64_t fb_hash = 0;
  std::size_t final_particles = 0;
  std::uint64_t heap_allocs = 0;  ///< message-buffer pool misses
};

SceneOutcome run_scene(const Scene& scene, SpaceMode space, LbMode lb,
                       bool pooled) {
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), 2, 4}};
  cfg.network = net::Interconnect::kMyrinet;
  cfg.space = space;
  cfg.lb = lb;
  const sim::BuiltCluster bc = sim::build_cluster(cfg);
  SimSettings settings;
  settings.ncalc = bc.ncalc;
  settings.frames = 8;
  settings.space = space;
  settings.lb = lb;
  settings.image_width = 96;
  settings.image_height = 72;

  auto& pool = mp::BufferPool::global();
  pool.trim();
  pool.set_enabled(pooled);
  pool.reset_stats();
  const ParallelResult r =
      run_parallel(scene, settings, bc.spec, bc.placement, {},
                   mp::RuntimeOptions{.recv_timeout_s = 15.0});
  SceneOutcome out;
  out.heap_allocs = pool.stats().misses;
  pool.set_enabled(true);
  out.makespan_s = r.animation_s;
  out.fb_hash = render::hash_framebuffer(r.final_frame);
  for (const auto& sys : r.final_particles) out.final_particles += sys.size();
  return out;
}

TEST(BufferPool, PoolOffLeavesSceneResultsBitIdentical) {
  // The reduced table 1 snow (finite space, dynamic LB) and table 3
  // fountain (infinite space, static LB) scenes with the pool on and off:
  // the same makespan to the bit, the same pixels and particle count, and
  // at least twice the heap allocations without the pool.
  sim::ScenarioParams params;
  params.systems = 4;
  params.particles_per_system = 800;
  params.frames = 8;
  const struct {
    const char* name;
    Scene scene;
    SpaceMode space;
    LbMode lb;
  } cases[] = {
      {"snow_fs_dlb", sim::make_snow_scene(params), SpaceMode::kFinite,
       LbMode::kDynamicPairwise},
      {"fountain_is_slb", sim::make_fountain_scene(params),
       SpaceMode::kInfinite, LbMode::kStatic},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const SceneOutcome on = run_scene(c.scene, c.space, c.lb, true);
    const SceneOutcome off = run_scene(c.scene, c.space, c.lb, false);
    EXPECT_EQ(on.makespan_s, off.makespan_s);  // exact doubles
    EXPECT_EQ(on.fb_hash, off.fb_hash);
    EXPECT_EQ(on.final_particles, off.final_particles);
    EXPECT_GT(on.final_particles, 0u);
    EXPECT_GT(off.heap_allocs, 0u);
    EXPECT_LE(2 * on.heap_allocs, off.heap_allocs);
  }
}

}  // namespace
}  // namespace psanim::core
