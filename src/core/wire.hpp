#pragma once

// Wire protocol: rank layout, message tags and payload codecs for the
// Fig. 2 frame loop.
//
// Rank layout is fixed: rank 0 manager, rank 1 image generator, ranks
// 2..2+n-1 the n calculators. Every payload starts with the frame number;
// receivers verify it, so a protocol ordering bug fails loudly instead of
// silently mixing frames.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "mp/message.hpp"
#include "psys/particle.hpp"
#include "psys/store.hpp"
#include "psys/system.hpp"

namespace psanim::core {

inline constexpr int kManagerRank = 0;
inline constexpr int kImageGenRank = 1;
inline constexpr int kFirstCalcRank = 2;

/// Rank of calculator index i (0-based).
constexpr int calc_rank(int index) { return kFirstCalcRank + index; }
/// Calculator index of a rank (undefined for manager/imgen ranks).
constexpr int calc_index(int rank) { return rank - kFirstCalcRank; }
/// World size for n calculators.
constexpr int world_size_for(int ncalc) { return ncalc + kFirstCalcRank; }

/// Message tags (one per protocol phase).
enum Tag : int {
  kTagCreate = 100,        ///< manager -> calculator: new particles
  kTagExchange = 101,      ///< calculator -> calculator: domain crossers
  kTagLoadReport = 102,    ///< calculator -> manager
  kTagOrders = 103,        ///< manager -> calculator: balance orders
  kTagEdgeProposal = 104,  ///< donating calculator -> manager: new edges
  kTagDomains = 105,       ///< manager -> calculator: updated edges
  kTagBalance = 106,       ///< calculator -> calculator: donated particles
  kTagFrame = 107,         ///< calculator -> image generator: render data
  kTagFramePart = 108,     ///< calculator -> image generator: partial image
  kTagGhost = 109,         ///< calculator -> calculator: collision ghosts
  kTagFrameAck = 110,      ///< image generator -> calculator: frame consumed
  kTagCrash = 111,         ///< dying calculator -> manager: obituary
  kTagCkptDigest = 112,    ///< rank -> manager: checkpoint image digest
};

/// Particles of one system, in one message.
struct SystemBatch {
  psys::SystemId system = 0;
  std::vector<psys::Particle> particles;
};

/// One calculator's per-system load report entry (§3.2.4).
struct LoadEntry {
  std::uint32_t system = 0;
  std::uint64_t particles = 0;
  double time_s = 0.0;  ///< pro-rata processing time for this count
};

/// One balance order addressed to the receiving calculator.
struct OrderEntry {
  std::uint32_t system = 0;
  std::uint8_t is_send = 0;  ///< 1 = donate to partner, 0 = receive
  std::int32_t partner = 0;  ///< calculator index
  std::uint64_t count = 0;
};

/// A proposed/announced domain-edge move.
struct EdgeEntry {
  std::uint32_t system = 0;
  std::int32_t edge_index = 0;
  float value = 0.0f;
};

/// Per-particle record shipped to the image generator — position plus
/// shading only, which is all rendering needs (the §4 rewrite's
/// "modifications related to ... communication operations").
struct RenderVertex {
  Vec3 pos;
  Vec3 color;
  float alpha = 1.0f;
  float size = 1.0f;
};

static_assert(std::is_trivially_copyable_v<RenderVertex>);

RenderVertex to_render_vertex(const psys::Particle& p);

/// Wire form of a RenderVertex: 16 bytes. Color is premultiplied by alpha
/// and quantized to 8 bits per channel (the additive blend only needs
/// energy, not exact floats); splat size is quantized against
/// kMaxSplatSize. The gather of every particle every frame is the largest
/// stream in the system, so its record is packed hard.
struct PackedVertex {
  float x = 0, y = 0, z = 0;
  std::uint8_t r = 0, g = 0, b = 0;
  std::uint8_t size_q = 0;
};

static_assert(sizeof(PackedVertex) == 16);
static_assert(std::is_trivially_copyable_v<PackedVertex>);

inline constexpr float kMaxSplatSize = 0.5f;

PackedVertex pack_vertex(const RenderVertex& v);

namespace detail {
/// What unpack_vertex makes of a quantized byte: i / 255 for a color
/// channel, i / 255 · kMaxSplatSize for a size. Computed at compile time
/// with the runtime expressions, so the lookups are exact.
template <typename F>
constexpr std::array<float, 256> byte_table(F f) {
  std::array<float, 256> t{};
  for (int i = 0; i < 256; ++i) t[static_cast<std::size_t>(i)] = f(i);
  return t;
}
inline constexpr std::array<float, 256> kUnitOfByte =
    byte_table([](int i) { return static_cast<float>(i) / 255.0f; });
inline constexpr std::array<float, 256> kSizeOfByte = byte_table(
    [](int i) { return static_cast<float>(i) / 255.0f * kMaxSplatSize; });
}  // namespace detail

inline RenderVertex unpack_vertex(const PackedVertex& p) {
  RenderVertex v;
  v.pos = {p.x, p.y, p.z};
  v.color = {detail::kUnitOfByte[p.r], detail::kUnitOfByte[p.g],
             detail::kUnitOfByte[p.b]};
  v.alpha = 1.0f;  // premultiplied into color
  v.size = detail::kSizeOfByte[p.size_q];
  return v;
}

// --- codecs ---
//
// Every control payload begins with a two-byte control header — the format
// magic byte and version shared with the ckpt snapshot format
// (ckpt::kFormatMagicByte / kFormatVersion) — followed by the frame
// number. Decoders verify both, so a build-format skew or a misrouted
// payload fails loudly instead of misdecoding.

void put_control_header(mp::Writer& w);
void check_control_header(mp::Reader& r, const char* where);

mp::Writer encode_batches(std::uint32_t frame,
                          const std::vector<SystemBatch>& batches);
std::vector<SystemBatch> decode_batches(const mp::Message& m,
                                        std::uint32_t expect_frame);

mp::Writer encode_load_report(std::uint32_t frame,
                              const std::vector<LoadEntry>& entries);
std::vector<LoadEntry> decode_load_report(const mp::Message& m,
                                          std::uint32_t expect_frame);

mp::Writer encode_orders(std::uint32_t frame,
                         const std::vector<OrderEntry>& orders);
std::vector<OrderEntry> decode_orders(const mp::Message& m,
                                      std::uint32_t expect_frame);

mp::Writer encode_edges(std::uint32_t frame,
                        const std::vector<EdgeEntry>& edges);
std::vector<EdgeEntry> decode_edges(const mp::Message& m,
                                    std::uint32_t expect_frame);

mp::Writer encode_frame_vertices(std::uint32_t frame,
                                 const std::vector<RenderVertex>& verts);
/// The calculator's frame: every particle of `stores`, packed straight
/// from their slices (no snapshot, no RenderVertex copy) in snapshot
/// order — stores in order, then slices, then particles. The payload is
/// byte-identical to the vector overload fed with the snapshots.
mp::Writer encode_frame_vertices(std::uint32_t frame,
                                 std::span<const psys::SlicedStore> stores);

/// A validated frame-vertex payload — the one place frame payloads are
/// bounds-checked. The constructor checks the control header, the frame
/// and the vertex count against the payload size, and throws
/// (ProtocolError / mp::DecodeError) on any mismatch, so a visitor never
/// sees part of a malformed frame. The view borrows the message's bytes.
class FrameVertexView {
 public:
  /// Vertices unpacked per for_each_chunk() call (a stack buffer).
  static constexpr std::size_t kChunk = 256;

  FrameVertexView(const mp::Message& m, std::uint32_t expect_frame);
  FrameVertexView(const mp::Message&&, std::uint32_t) = delete;

  std::size_t size() const { return records_.size() / sizeof(PackedVertex); }

  /// Unpack the vertices in payload order, at most kChunk at a time, and
  /// hand each chunk to `visit` (a std::span<const RenderVertex>).
  template <typename Visit>
  void for_each_chunk(Visit&& visit) const {
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

 private:
  std::span<const std::byte> records_;
};

/// Every vertex of a frame payload, unpacked (tests, the benchmark probe).
std::vector<RenderVertex> decode_frame_vertices(const mp::Message& m,
                                                std::uint32_t expect_frame);

/// Thrown when a payload's frame number does not match the receiver's
/// current frame — a protocol bug.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void check_frame(std::uint32_t got, std::uint32_t expect, const char* where);

}  // namespace psanim::core
