#include "core/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

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

RenderVertex unpack_vertex(const PackedVertex& p) {
  RenderVertex v;
  v.pos = {p.x, p.y, p.z};
  v.color = {static_cast<float>(p.r) / 255.0f,
             static_cast<float>(p.g) / 255.0f,
             static_cast<float>(p.b) / 255.0f};
  v.alpha = 1.0f;  // premultiplied into color
  v.size = static_cast<float>(p.size_q) / 255.0f * kMaxSplatSize;
  return v;
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

const RenderVertex& as_render_vertex(const RenderVertex& v) { return v; }
RenderVertex as_render_vertex(const psys::Particle& p) {
  return to_render_vertex(p);
}

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

/// The one pack loop: records go straight into the payload. memcpy keeps
/// the write legal at any alignment (the 14-byte header leaves the array
/// unaligned). Returns the end of what was written.
template <typename V>
std::byte* pack_vertices(std::byte* out, std::span<const V> items) {
  for (const V& item : items) {
    const PackedVertex p = pack_vertex(as_render_vertex(item));
    std::memcpy(out, &p, sizeof(PackedVertex));
    out += sizeof(PackedVertex);
  }
  return out;
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

void FrameVertexView::for_each_chunk(
    const std::function<void(std::span<const RenderVertex>)>& visit) const {
  std::array<RenderVertex, kChunk> buf;
  const std::size_t n = size();
  for (std::size_t at = 0; at < n; at += kChunk) {
    const std::size_t len = std::min(kChunk, n - at);
    const std::byte* in = records_.data() + at * sizeof(PackedVertex);
    for (std::size_t i = 0; i < len; ++i) {
      PackedVertex p;
      std::memcpy(&p, in + i * sizeof(PackedVertex), sizeof(PackedVertex));
      buf[i] = unpack_vertex(p);
    }
    visit(std::span<const RenderVertex>(buf.data(), len));
  }
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
