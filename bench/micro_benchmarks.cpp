// Google-benchmark microbenches for the hot per-particle paths: action
// application, sliced-store maintenance, spatial hashing, RNG, wire
// packing and the image generator's unpack + splat, plus checkpoint
// capture (CRC-32 and snapshot assembly). These measure REAL nanoseconds
// on the host (unlike the table benches, which report virtual cluster
// time) — useful when tuning the library itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "ckpt/format.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_codec.hpp"
#include "collide/pair_collide.hpp"
#include "collide/spatial_hash.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "psys/actions.hpp"
#include "psys/store.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "render/splat.hpp"

namespace {

using namespace psanim;

std::vector<psys::Particle> make_particles(std::size_t n,
                                           std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<psys::Particle> out(n);
  for (auto& p : out) {
    p.pos = rng.in_box({-10, 0, -10}, {10, 10, 10});
    p.prev_pos = p.pos;
    p.vel = rng.in_unit_ball() * 3.0f;
    p.color = {0.5f, 0.6f, 0.9f};
    p.size = 0.05f;
    p.lifetime = 5.0f;
  }
  return out;
}

void BM_ActionGravity(benchmark::State& state) {
  auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  psys::Gravity g({0, -9.8f, 0});
  Rng rng(1);
  psys::ActionContext ctx{1.0f / 30.0f, &rng, 0};
  for (auto _ : state) {
    g.apply(parts, ctx);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ActionGravity)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_ActionRandomAccel(benchmark::State& state) {
  auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  psys::RandomAccel a(psys::make_sphere({0, 0, 0}, 1.0f));
  Rng rng(1);
  psys::ActionContext ctx{1.0f / 30.0f, &rng, 0};
  for (auto _ : state) {
    a.apply(parts, ctx);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ActionRandomAccel)->Arg(1 << 10)->Arg(1 << 14);

void BM_ActionBounce(benchmark::State& state) {
  auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  psys::Bounce b(psys::make_plane({0, 0, 0}, {0, 1, 0}), 0.3f, 0.2f);
  Rng rng(1);
  psys::ActionContext ctx{1.0f / 30.0f, &rng, 0};
  for (auto _ : state) {
    b.apply(parts, ctx);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ActionBounce)->Arg(1 << 10)->Arg(1 << 14);

void BM_ActionMove(benchmark::State& state) {
  auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  psys::Move mv;
  Rng rng(1);
  psys::ActionContext ctx{1.0f / 30.0f, &rng, 0};
  for (auto _ : state) {
    mv.apply(parts, ctx);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ActionMove)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_StoreInsertExtract(benchmark::State& state) {
  const auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  std::vector<psys::Particle> out;
  for (auto _ : state) {
    psys::SlicedStore store(0, -10, 10, 8);
    store.insert_batch(parts);
    store.sweep([](std::span<psys::Particle>) {}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreInsertExtract)->Arg(1 << 12)->Arg(1 << 16);

// The frame's store visit without the actions: 64k particles in 8 slices
// of [-10, 10). Arg 0: nothing moved. Arg 1: a fountain-like frame, where
// ~30% of each slice crossed an internal cut and ~12% left the domain
// (the layout is restored, untimed, before every sweep).
void BM_StoreSweep(benchmark::State& state) {
  constexpr float kLo = -10.0f;
  constexpr float kHi = 10.0f;
  psys::SlicedStore store(0, kLo, kHi, 8);
  store.insert_batch(make_particles(1 << 16));
  auto layout = store.raw_slices();
  if (state.range(0) == 1) {
    Rng rng(9);
    const float width = (kHi - kLo) / 8.0f;
    for (auto& slice : layout) {
      for (auto& p : slice) {
        const float u = rng.next_float();
        if (u < 0.12f) {
          p.pos.x += (kHi - kLo) * (u < 0.06f ? -1.0f : 1.0f);
        } else if (u < 0.42f) {
          p.pos.x = std::clamp(p.pos.x + (u < 0.27f ? -width : width),
                               kLo, std::nextafter(kHi, kLo));
        }
      }
    }
  }
  std::vector<psys::Particle> crossers;
  for (auto _ : state) {
    state.PauseTiming();
    store.adopt_slices(kLo, kHi, layout);
    state.ResumeTiming();
    store.sweep([](std::span<psys::Particle>) {}, crossers);
    benchmark::DoNotOptimize(crossers.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_StoreSweep)->Arg(0)->Arg(1);

void BM_StoreDonate(benchmark::State& state) {
  const auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  const auto slices = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    psys::SlicedStore store(0, -10, 10, slices);
    store.insert_batch(parts);
    state.ResumeTiming();
    auto d = store.donate_low(parts.size() / 4);
    benchmark::DoNotOptimize(d.particles.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 4);
}
BENCHMARK(BM_StoreDonate)
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 8})
    ->Args({1 << 14, 32});

void BM_SpatialHashBuild(benchmark::State& state) {
  const auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  collide::SpatialHash grid(0.25f);
  for (auto _ : state) {
    grid.build(parts);
    benchmark::DoNotOptimize(grid.cell_count_used());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpatialHashBuild)->Arg(1 << 12)->Arg(1 << 16);

void BM_PairCollide(benchmark::State& state) {
  auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto stats = collide::resolve_pair_collisions(parts, {}, 0.25f, 0.4f);
    benchmark::DoNotOptimize(stats.contacts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PairCollide)->Arg(1 << 12)->Arg(1 << 14);

void BM_RngNextFloat(benchmark::State& state) {
  Rng rng(7);
  float acc = 0;
  for (auto _ : state) {
    acc += rng.next_float();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextFloat);

void BM_PackVertices(benchmark::State& state) {
  const auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  std::vector<core::RenderVertex> verts;
  verts.reserve(parts.size());
  for (const auto& p : parts) verts.push_back(core::to_render_vertex(p));
  for (auto _ : state) {
    auto w = core::encode_frame_vertices(0, verts);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackVertices)->Arg(1 << 12)->Arg(1 << 16);

// What the calculator sends each frame: the same payload packed straight
// from the store slices, with no snapshot or RenderVertex copy first.
void BM_PackVerticesFromStores(benchmark::State& state) {
  std::vector<psys::SlicedStore> stores;
  stores.emplace_back(0, -10.0f, 10.0f, 8);
  stores.back().insert_batch(
      make_particles(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto w = core::encode_frame_vertices(
        0, std::span<const psys::SlicedStore>(stores));
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackVerticesFromStores)->Arg(1 << 12)->Arg(1 << 16);

// The image generator's side of the gather: one calculator's packed
// frame payload unpacked and splatted into a 320x240 framebuffer.
void BM_SplatFrameView(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<psys::SlicedStore> stores;
  stores.emplace_back(0, -10.0f, 10.0f, 8);
  stores.back().insert_batch(make_particles(n));
  mp::Message m;
  m.payload = core::encode_frame_vertices(
                  0, std::span<const psys::SlicedStore>(stores))
                  .take();
  const auto cam = render::Camera::framing({0, 5, 0}, 12.0f, 320, 240);
  render::Framebuffer fb(320, 240);
  for (auto _ : state) {
    const core::FrameVertexView view(m, 0);
    view.for_each_chunk([&](std::span<const core::RenderVertex> chunk) {
      render::splat_points(fb, cam, chunk, render::BlendMode::kAdditive);
    });
    benchmark::DoNotOptimize(fb.colors().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SplatFrameView)->Arg(1 << 16);

void BM_ExchangeRoundTrip(benchmark::State& state) {
  const auto parts = make_particles(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto w = core::encode_batches(3, {core::SystemBatch{0, parts}});
    mp::Message m;
    m.payload = w.take();
    auto batches = core::decode_batches(m, 3);
    benchmark::DoNotOptimize(batches.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExchangeRoundTrip)->Arg(1 << 10)->Arg(1 << 14);

void BM_Crc32(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (auto& b : buf) b = static_cast<std::byte>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::crc32(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 16);

// One calculator capture: its store, a decomposition-sized section and the
// clock, assembled into an image with its whole-image digest.
void BM_SnapshotFinish(benchmark::State& state) {
  psys::SlicedStore store(0, -10.0f, 10.0f, 8);
  store.insert_batch(make_particles(static_cast<std::size_t>(state.range(0))));
  std::int64_t bytes = 0;
  for (auto _ : state) {
    ckpt::SnapshotWriter snap(ckpt::Role::kCalculator, 2, 7, 42);
    ckpt::encode_store(snap.begin_section(ckpt::SectionId::kStores), store);
    auto& decomps = snap.begin_section(ckpt::SectionId::kDecomps);
    for (int i = 0; i < 16; ++i) decomps.put(static_cast<float>(i));
    snap.begin_section(ckpt::SectionId::kClock).put(1.5);
    const auto image = snap.finish();
    benchmark::DoNotOptimize(snap.digest());
    benchmark::DoNotOptimize(image.data());
    bytes += static_cast<std::int64_t>(image.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SnapshotFinish)->Arg(1 << 2)->Arg(1 << 8)->Arg(1 << 12);

}  // namespace

BENCHMARK_MAIN();
