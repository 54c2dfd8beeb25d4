#include "core/wire.hpp"

#include <cstddef>
#include <cstring>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "ckpt/format.hpp"

namespace psanim::core {

void put_control_header(mp::Writer& w) {
  w.put(ckpt::kFormatMagicByte);
  w.put(ckpt::kFormatVersion);
}

void check_control_header(mp::Reader& r, const char* where) {
  const auto magic = r.get<std::uint8_t>();
  if (magic != ckpt::kFormatMagicByte) {
    throw ProtocolError(std::string(where) +
                        ": control payload has bad format magic 0x" +
                        std::to_string(magic) +
                        " — wire/snapshot format skew or misrouted message");
  }
  const auto version = r.get<std::uint8_t>();
  if (version != ckpt::kFormatVersion) {
    throw ProtocolError(std::string(where) + ": control format version " +
                        std::to_string(version) + ", this build speaks " +
                        std::to_string(ckpt::kFormatVersion));
  }
}

RenderVertex to_render_vertex(const psys::Particle& p) {
  return {p.pos, p.color, p.alpha, p.size};
}

namespace {
std::uint8_t quantize01(float v) {
  // NaN fails `v > 0` and maps to 0 like every non-positive input; the
  // float-to-uint8 cast below is undefined for anything outside [0, 256).
  const float lo = v > 0.0f ? v : 0.0f;
  const float c = lo < 1.0f ? lo : 1.0f;
  return static_cast<std::uint8_t>(c * 255.0f + 0.5f);
}
}  // namespace

PackedVertex pack_vertex(const RenderVertex& v) {
  PackedVertex p;
  p.x = v.pos.x;
  p.y = v.pos.y;
  p.z = v.pos.z;
  p.r = quantize01(v.color.x * v.alpha);
  p.g = quantize01(v.color.y * v.alpha);
  p.b = quantize01(v.color.z * v.alpha);
  p.size_q = quantize01(v.size / kMaxSplatSize);
  return p;
}

void check_frame(std::uint32_t got, std::uint32_t expect, const char* where) {
  if (got != expect) {
    throw ProtocolError(std::string(where) + ": payload for frame " +
                        std::to_string(got) + " arrived in frame " +
                        std::to_string(expect));
  }
}

mp::Writer encode_batches(std::uint32_t frame,
                          const std::vector<SystemBatch>& batches) {
  mp::Writer w;
  put_control_header(w);
  w.put(frame);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(batches.size()));
  for (const auto& b : batches) {
    w.put<std::uint32_t>(b.system);
    w.put_vector(b.particles);
  }
  return w;
}

std::vector<SystemBatch> decode_batches(const mp::Message& m,
                                        std::uint32_t expect_frame) {
  mp::Reader r(m);
  check_control_header(r, "decode_batches");
  check_frame(r.get<std::uint32_t>(), expect_frame, "decode_batches");
  // Every batch carries at least its system id and a length prefix, so a
  // count the payload cannot hold is corrupt — refuse it before sizing.
  const auto n = r.get<std::uint32_t>();
  if (n > r.remaining() / (sizeof(std::uint32_t) + sizeof(std::uint64_t))) {
    throw mp::DecodeError("decode_batches: batch count exceeds payload");
  }
  std::vector<SystemBatch> out(n);
  for (auto& b : out) {
    b.system = r.get<std::uint32_t>();
    b.particles = r.get_vector<psys::Particle>();
  }
  return out;
}

mp::Writer encode_load_report(std::uint32_t frame,
                              const std::vector<LoadEntry>& entries) {
  mp::Writer w;
  put_control_header(w);
  w.put(frame);
  w.put_vector(entries);
  return w;
}

std::vector<LoadEntry> decode_load_report(const mp::Message& m,
                                          std::uint32_t expect_frame) {
  mp::Reader r(m);
  check_control_header(r, "decode_load_report");
  check_frame(r.get<std::uint32_t>(), expect_frame, "decode_load_report");
  return r.get_vector<LoadEntry>();
}

mp::Writer encode_orders(std::uint32_t frame,
                         const std::vector<OrderEntry>& orders) {
  mp::Writer w;
  put_control_header(w);
  w.put(frame);
  w.put_vector(orders);
  return w;
}

std::vector<OrderEntry> decode_orders(const mp::Message& m,
                                      std::uint32_t expect_frame) {
  mp::Reader r(m);
  check_control_header(r, "decode_orders");
  check_frame(r.get<std::uint32_t>(), expect_frame, "decode_orders");
  return r.get_vector<OrderEntry>();
}

mp::Writer encode_edges(std::uint32_t frame,
                        const std::vector<EdgeEntry>& edges) {
  mp::Writer w;
  put_control_header(w);
  w.put(frame);
  w.put_vector(edges);
  return w;
}

std::vector<EdgeEntry> decode_edges(const mp::Message& m,
                                    std::uint32_t expect_frame) {
  mp::Reader r(m);
  check_control_header(r, "decode_edges");
  check_frame(r.get<std::uint32_t>(), expect_frame, "decode_edges");
  return r.get_vector<EdgeEntry>();
}

namespace {

/// Frame header plus the vertex count, then room for `n` packed records;
/// returns where the records start.
std::byte* begin_frame_vertices(mp::Writer& w, std::uint32_t frame,
                                std::size_t n) {
  w.reserve(2 + sizeof(frame) + sizeof(std::uint64_t) +
            n * sizeof(PackedVertex));
  put_control_header(w);
  w.put(frame);
  w.put<std::uint64_t>(n);
  return w.alloc(n * sizeof(PackedVertex));
}

/// The pack loops write records straight into the payload. memcpy keeps
/// the write legal at any alignment (the 14-byte header leaves the array
/// unaligned). Each returns the end of what it wrote.
std::byte* pack_vertices(std::byte* out, std::span<const RenderVertex> verts) {
  for (const RenderVertex& v : verts) {
    const PackedVertex p = pack_vertex(v);
    std::memcpy(out, &p, sizeof(PackedVertex));
    out += sizeof(PackedVertex);
  }
  return out;
}

/// pack_vertex(to_render_vertex(p)) for each particle, its four quantized
/// bytes computed in one SSE2 register: the same IEEE operations, lane by
/// lane (x86-64 has no FMA to contract them, and size · 2 is exactly
/// size / kMaxSplatSize).
std::byte* pack_vertices(std::byte* out, std::span<const psys::Particle> ps) {
#if defined(__SSE2__)
  static_assert(kMaxSplatSize == 0.5f);
  const __m128 zero = _mm_setzero_ps();
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 k255 = _mm_set1_ps(255.0f);
  const __m128 half = _mm_set1_ps(0.5f);
  for (const psys::Particle& p : ps) {
    const __m128 v =
        _mm_mul_ps(_mm_set_ps(p.size, p.color.z, p.color.y, p.color.x),
                   _mm_set_ps(2.0f, p.alpha, p.alpha, p.alpha));
    // quantize01 per lane. maxps returns its second operand when the
    // first is NaN, so NaN maps to 0 as in the scalar code.
    const __m128 c = _mm_min_ps(_mm_max_ps(v, zero), one);
    const __m128i q = _mm_cvttps_epi32(_mm_add_ps(_mm_mul_ps(c, k255), half));
    const __m128i bytes =
        _mm_packus_epi16(_mm_packs_epi32(q, q), _mm_setzero_si128());
    const auto rgbs = static_cast<std::uint32_t>(_mm_cvtsi128_si32(bytes));
    static_assert(offsetof(PackedVertex, r) == 3 * sizeof(float));
    std::memcpy(out, &p.pos, 3 * sizeof(float));
    std::memcpy(out + offsetof(PackedVertex, r), &rgbs, sizeof(rgbs));
    out += sizeof(PackedVertex);
  }
  return out;
#else
  for (const psys::Particle& particle : ps) {
    const PackedVertex p = pack_vertex(to_render_vertex(particle));
    std::memcpy(out, &p, sizeof(PackedVertex));
    out += sizeof(PackedVertex);
  }
  return out;
#endif
}

}  // namespace

mp::Writer encode_frame_vertices(std::uint32_t frame,
                                 const std::vector<RenderVertex>& verts) {
  mp::Writer w;
  pack_vertices(begin_frame_vertices(w, frame, verts.size()),
                std::span<const RenderVertex>(verts));
  return w;
}

mp::Writer encode_frame_vertices(std::uint32_t frame,
                                 std::span<const psys::SlicedStore> stores) {
  std::size_t n = 0;
  for (const auto& store : stores) n += store.size();
  mp::Writer w;
  std::byte* out = begin_frame_vertices(w, frame, n);
  for (const auto& store : stores) {
    for (const auto& slice : store.raw_slices()) {
      out = pack_vertices(out, std::span<const psys::Particle>(slice));
    }
  }
  return w;
}

FrameVertexView::FrameVertexView(const mp::Message& m,
                                 std::uint32_t expect_frame) {
  mp::Reader r(m);
  check_control_header(r, "decode_frame_vertices");
  check_frame(r.get<std::uint32_t>(), expect_frame, "decode_frame_vertices");
  const auto n = r.get<std::uint64_t>();
  if (n > r.remaining() / sizeof(PackedVertex)) {
    throw mp::DecodeError(
        "decode_frame_vertices: vertex count exceeds payload");
  }
  records_ = r.raw(static_cast<std::size_t>(n) * sizeof(PackedVertex));
}

std::vector<RenderVertex> decode_frame_vertices(const mp::Message& m,
                                                std::uint32_t expect_frame) {
  const FrameVertexView view(m, expect_frame);
  std::vector<RenderVertex> verts;
  verts.reserve(view.size());
  view.for_each_chunk([&](std::span<const RenderVertex> chunk) {
    verts.insert(verts.end(), chunk.begin(), chunk.end());
  });
  return verts;
}

}  // namespace psanim::core
