// Wire-codec robustness fuzz: seeded mutations over every core/wire.cpp
// decoder — particle batches, frame vertices (both the vector decoder and
// the chunk visitor the image generator splats from), load reports,
// balance orders and domain edges — asserting the decoders' contract
// everywhere: a
// truncated payload, an inflated element count, a wrong control header or
// a payload for another frame is refused with the decoder's typed error
// (core::ProtocolError or mp::DecodeError); a flipped bit either decodes
// or is refused the same way. Nothing crashes, nothing allocates from an
// unchecked count, and every mutant lives in an exactly-sized buffer so an
// out-of-bounds read shows under ASan. The corpus is generated in-process
// from fixed seeds (splitmix64), so the suite is deterministic and nothing
// binary is committed.
//
// The FramePack tests pin the encoder's exactness on the same inputs a
// fuzzer would aim at: the calculator's lane-parallel pack against the
// scalar pack_vertex on every special float, and the unpack's lookup
// tables against the divisions they replace.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "core/wire.hpp"
#include "mp/message.hpp"
#include "psys/store.hpp"

namespace psanim {
namespace {

using Bytes = std::vector<std::byte>;

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

constexpr std::uint32_t kFrame = 7;
/// Control header (magic + version) then the u32 frame number.
constexpr std::size_t kFrameOffset = 2;
constexpr std::size_t kCountOffset = kFrameOffset + sizeof(std::uint32_t);

/// One decoder under test: a well-formed payload, the byte offset and
/// width of its top-level element count, and a call that decodes a
/// message and returns how many elements came out.
struct Codec {
  std::string name;
  Bytes base;
  std::size_t base_count = 0;
  std::size_t count_width = sizeof(std::uint64_t);
  std::function<std::size_t(const mp::Message&, std::uint32_t)> decode;
};

Bytes bytes_of(mp::Writer w) { return w.take(); }

psys::Particle particle(float x) {
  psys::Particle p;
  p.pos = {x, 2 * x, -x};
  p.vel = {1, 0, 0};
  p.color = {0.5f, 0.25f, 1.0f};
  p.age = x;
  return p;
}

/// Drive the chunk visitor: a payload is either refused before the
/// callback has run once (the image generator never splats part of a
/// malformed frame) or visited in full, vertex for vertex what
/// decode_frame_vertices returns.
std::size_t visit_frame_vertices(const mp::Message& m, std::uint32_t frame) {
  std::vector<core::RenderVertex> seen;
  std::size_t calls = 0;
  try {
    const core::FrameVertexView view(m, frame);
    view.for_each_chunk([&](std::span<const core::RenderVertex> chunk) {
      ++calls;
      seen.insert(seen.end(), chunk.begin(), chunk.end());
    });
  } catch (...) {
    EXPECT_EQ(calls, 0u) << "visitor ran on a payload it then refused";
    throw;
  }
  const auto decoded = core::decode_frame_vertices(m, frame);
  EXPECT_EQ(seen.size(), decoded.size());
  if (seen.size() == decoded.size() && !seen.empty()) {
    EXPECT_EQ(std::memcmp(seen.data(), decoded.data(),
                          seen.size() * sizeof(core::RenderVertex)),
              0);
  }
  return seen.size();
}

std::vector<Codec> codecs() {
  std::vector<Codec> out;

  std::vector<core::SystemBatch> batches(3);
  batches[0] = {0, {particle(1), particle(2), particle(3)}};
  batches[1] = {2, {}};
  batches[2] = {5, {particle(4), particle(5)}};
  out.push_back({"decode_batches",
                 bytes_of(core::encode_batches(kFrame, batches)),
                 batches.size(), sizeof(std::uint32_t),
                 [](const mp::Message& m, std::uint32_t f) {
                   return core::decode_batches(m, f).size();
                 }});

  std::vector<core::RenderVertex> verts;
  for (int i = 0; i < 5; ++i) {
    verts.push_back(core::to_render_vertex(particle(static_cast<float>(i))));
  }
  out.push_back({"decode_frame_vertices",
                 bytes_of(core::encode_frame_vertices(kFrame, verts)),
                 verts.size(), sizeof(std::uint64_t),
                 [](const mp::Message& m, std::uint32_t f) {
                   return core::decode_frame_vertices(m, f).size();
                 }});
  out.push_back({"FrameVertexView",
                 bytes_of(core::encode_frame_vertices(kFrame, verts)),
                 verts.size(), sizeof(std::uint64_t), visit_frame_vertices});

  const std::vector<core::LoadEntry> loads{
      {0, 1200, 0.25}, {1, 0, 0.0}, {3, 77, 1e-3}};
  out.push_back({"decode_load_report",
                 bytes_of(core::encode_load_report(kFrame, loads)),
                 loads.size(), sizeof(std::uint64_t),
                 [](const mp::Message& m, std::uint32_t f) {
                   return core::decode_load_report(m, f).size();
                 }});

  const std::vector<core::OrderEntry> orders{
      {0, 1, 2, 400}, {1, 0, 0, 12}, {0, 0, 1, 1}, {2, 1, 3, 9}};
  out.push_back({"decode_orders",
                 bytes_of(core::encode_orders(kFrame, orders)),
                 orders.size(), sizeof(std::uint64_t),
                 [](const mp::Message& m, std::uint32_t f) {
                   return core::decode_orders(m, f).size();
                 }});

  const std::vector<core::EdgeEntry> edges{{0, 1, 0.5f}, {1, 2, -3.25f}};
  out.push_back({"decode_edges", bytes_of(core::encode_edges(kFrame, edges)),
                 edges.size(), sizeof(std::uint64_t),
                 [](const mp::Message& m, std::uint32_t f) {
                   return core::decode_edges(m, f).size();
                 }});
  return out;
}

enum class Outcome { kDecoded, kRejected };

/// Decode `bytes` from an exactly-sized copy. Only the typed decoder
/// errors count as a refusal; anything else escapes and fails the test.
Outcome decode(const Codec& c, const Bytes& bytes,
               std::uint32_t frame = kFrame) {
  mp::Message m;
  m.payload = Bytes(bytes.begin(), bytes.end());
  try {
    c.decode(m, frame);
    return Outcome::kDecoded;
  } catch (const core::ProtocolError&) {
    return Outcome::kRejected;
  } catch (const mp::DecodeError&) {
    return Outcome::kRejected;
  }
}

/// Overwrite a little-endian u32 or u64 field in place.
void put_field(Bytes& bytes, std::size_t offset, std::size_t width,
               std::uint64_t value) {
  if (width == sizeof(std::uint32_t)) {
    const auto v = static_cast<std::uint32_t>(value);
    std::memcpy(bytes.data() + offset, &v, sizeof(v));
  } else {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
  }
}

// --- the corpus is well formed -------------------------------------------

TEST(WireFuzz, BasePayloadsRoundTrip) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    mp::Message m;
    m.payload = c.base;
    EXPECT_EQ(c.decode(m, kFrame), c.base_count);
  }
}

// --- truncation: every cut is refused -----------------------------------

TEST(WireFuzz, TruncationAtEveryLengthIsRejected) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    for (std::size_t len = 0; len < c.base.size(); ++len) {
      const Bytes cut(c.base.begin(),
                      c.base.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_EQ(decode(c, cut), Outcome::kRejected) << "len " << len;
    }
  }
}

// --- bit flips: corruption anywhere, never a crash ----------------------

TEST(WireFuzz, SingleBitFlipsDecodeOrAreRejected) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    Rng rng{2026};
    std::size_t rejected = 0, decoded = 0;
    for (int trial = 0; trial < 400; ++trial) {
      Bytes bytes = c.base;
      const std::size_t pos = rng.below(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1u << rng.below(8));
      (decode(c, bytes) == Outcome::kDecoded ? decoded : rejected) += 1;
    }
    // Both outcomes occurred: flips in the header, frame or counts are
    // refused; flips in element data decode (the wire has no checksum).
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(decoded, 0u);
  }
}

// --- inflated counts: refused before anything is sized from them ---------

TEST(WireFuzz, InflatedCountsAreRejected) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    const std::uint64_t max = c.count_width == sizeof(std::uint32_t)
                                  ? std::numeric_limits<std::uint32_t>::max()
                                  : std::numeric_limits<std::uint64_t>::max();
    // One too many, a plausible-looking overshoot, counts whose byte size
    // wraps a 64-bit multiply, and the field's maximum.
    const std::uint64_t inflated[] = {
        c.base_count + 1, c.base_count * 1000 + 1, max / 16 + 1, max / 2,
        max};
    for (const std::uint64_t n : inflated) {
      Bytes bytes = c.base;
      put_field(bytes, kCountOffset, c.count_width, n);
      EXPECT_EQ(decode(c, bytes), Outcome::kRejected) << "count " << n;
    }
  }
}

TEST(WireFuzz, InflatedNestedParticleCountIsRejected) {
  // decode_batches also trusts a per-batch particle count: inflate the
  // first batch's (after the u32 batch count and u32 system id) past what
  // the payload holds.
  const auto all = codecs();
  const Codec& c = all.front();
  ASSERT_EQ(c.name, "decode_batches");
  const std::size_t offset = kCountOffset + 2 * sizeof(std::uint32_t);
  for (const std::uint64_t n :
       {std::uint64_t{1} << 20, std::uint64_t{1} << 40,
        std::numeric_limits<std::uint64_t>::max()}) {
    Bytes bytes = c.base;
    put_field(bytes, offset, sizeof(std::uint64_t), n);
    EXPECT_EQ(decode(c, bytes), Outcome::kRejected) << "count " << n;
  }
}

// --- wrong header or frame: always a ProtocolError -----------------------

TEST(WireFuzz, WrongHeaderOrFrameIsAProtocolError) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    mp::Message m;
    // Every wrong magic byte and every wrong version byte...
    for (int v = 0; v < 256; ++v) {
      for (std::size_t at : {std::size_t{0}, std::size_t{1}}) {
        const auto good = at == 0 ? ckpt::kFormatMagicByte
                                  : ckpt::kFormatVersion;
        if (v == good) continue;
        Bytes bytes = c.base;
        bytes[at] = static_cast<std::byte>(v);
        m.payload = bytes;
        EXPECT_THROW(c.decode(m, kFrame), core::ProtocolError)
            << "header byte " << at << " = " << v;
      }
    }
    // ...a payload stamped for another frame, and a receiver expecting
    // another frame.
    Bytes other = c.base;
    put_field(other, kFrameOffset, sizeof(std::uint32_t), kFrame + 1);
    m.payload = other;
    EXPECT_THROW(c.decode(m, kFrame), core::ProtocolError);
    m.payload = c.base;
    for (const std::uint32_t expect :
         {kFrame - 1, kFrame + 1, std::numeric_limits<std::uint32_t>::max()}) {
      EXPECT_THROW(c.decode(m, expect), core::ProtocolError)
          << "expect frame " << expect;
    }
  }
}

// --- the chunk visitor across chunk boundaries ----------------------------

TEST(WireFuzz, FrameVertexVisitorAcrossChunkBoundaries) {
  // Multi-chunk payloads under the same mutation families: every cut,
  // inflated and deflated counts, and seeded bit flips.
  const std::size_t k = core::FrameVertexView::kChunk;
  Rng rng{77};
  for (const std::size_t n : {k - 1, k, k + 1, 2 * k + 3}) {
    SCOPED_TRACE(n);
    std::vector<core::RenderVertex> verts;
    for (std::size_t i = 0; i < n; ++i) {
      verts.push_back(core::to_render_vertex(particle(0.01f * i)));
    }
    const Codec c{"FrameVertexView",
                  bytes_of(core::encode_frame_vertices(kFrame, verts)), n,
                  sizeof(std::uint64_t), visit_frame_vertices};
    mp::Message m;
    m.payload = c.base;
    ASSERT_EQ(visit_frame_vertices(m, kFrame), n);

    for (std::size_t len = 0; len < c.base.size(); ++len) {
      const Bytes cut(c.base.begin(),
                      c.base.begin() + static_cast<std::ptrdiff_t>(len));
      ASSERT_EQ(decode(c, cut), Outcome::kRejected) << "len " << len;
    }
    for (const std::uint64_t count :
         {std::uint64_t{n + 1}, std::uint64_t{n + k},
          std::numeric_limits<std::uint64_t>::max() / 16 + 1}) {
      Bytes bytes = c.base;
      put_field(bytes, kCountOffset, c.count_width, count);
      EXPECT_EQ(decode(c, bytes), Outcome::kRejected) << "count " << count;
    }
    // A smaller count is a well-formed shorter frame with trailing bytes:
    // the visitor sees exactly the prefix, like the vector decoder.
    for (const std::uint64_t count : {std::uint64_t{0}, std::uint64_t{n - 1},
                                      std::uint64_t{k}}) {
      if (count > n) continue;
      Bytes bytes = c.base;
      put_field(bytes, kCountOffset, c.count_width, count);
      m.payload = bytes;
      EXPECT_EQ(visit_frame_vertices(m, kFrame), count);
    }
    for (int trial = 0; trial < 200; ++trial) {
      Bytes bytes = c.base;
      const std::size_t pos = rng.below(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1u << rng.below(8));
      decode(c, bytes);  // either outcome; the visitor checks itself
    }
  }
}

/// Floats where a quantizer can go wrong: NaN (both signs), infinities,
/// signed zeros, denormals, 1 ± ulp, and for every byte k the inputs
/// whose · 255 + 0.5 lands on or next to k + 0.5 and k + 1.
std::vector<float> special_floats() {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          inf,
                          -inf,
                          0.0f,
                          -0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::min(),
                          1.0f,
                          std::nextafter(1.0f, 0.0f),
                          std::nextafter(1.0f, 2.0f),
                          -1.0f,
                          2.0f,
                          1e30f,
                          std::numeric_limits<float>::max()};
  for (int k = 0; k < 256; ++k) {
    for (const float base : {static_cast<float>(k) / 255.0f,
                             (static_cast<float>(k) + 0.5f) / 255.0f}) {
      v.push_back(base);
      v.push_back(std::nextafter(base, -inf));
      v.push_back(std::nextafter(base, inf));
    }
  }
  return v;
}

TEST(FramePack, LaneKernelMatchesScalarPackOnSpecials) {
  const std::vector<float> vals = special_floats();
  const float alphas[] = {1.0f,
                          0.5f,
                          0.0f,
                          -0.0f,
                          -1.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::denorm_min(),
                          std::nextafter(1.0f, 2.0f)};
  std::vector<psys::SlicedStore> stores;
  stores.emplace_back(0, -1e6f, 1e6f, 4);
  Rng rng{11};
  const std::size_t n = vals.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (const float a : alphas) {
      psys::Particle p;
      p.pos = {static_cast<float>(rng.below(2000)) - 1000.0f, -0.0f,
               std::numeric_limits<float>::denorm_min()};
      p.color = {vals[i], vals[(i + 1) % n], vals[(i + 7) % n]};
      p.alpha = a;
      // Sizes on both sides of kMaxSplatSize, NaN and the quantizer's
      // boundaries scaled onto the size range.
      p.size = vals[(i + 3) % n] * (i % 2 ? core::kMaxSplatSize : 3.0f);
      stores.back().insert(p);
    }
  }
  const std::vector<psys::Particle> all = stores.back().snapshot();
  ASSERT_EQ(all.size(), n * std::size(alphas));

  std::vector<core::RenderVertex> verts;
  for (const auto& p : all) verts.push_back(core::to_render_vertex(p));
  const Bytes lanes = bytes_of(core::encode_frame_vertices(
      kFrame, std::span<const psys::SlicedStore>(stores)));
  const Bytes scalar = bytes_of(core::encode_frame_vertices(kFrame, verts));
  ASSERT_EQ(lanes.size(), scalar.size());
  const std::size_t head =
      lanes.size() - all.size() * sizeof(core::PackedVertex);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::size_t at = head + i * sizeof(core::PackedVertex);
    ASSERT_EQ(std::memcmp(lanes.data() + at, scalar.data() + at,
                          sizeof(core::PackedVertex)),
              0)
        << "vertex " << i << ": color " << all[i].color.x << ","
        << all[i].color.y << "," << all[i].color.z << " alpha "
        << all[i].alpha << " size " << all[i].size;
  }
  EXPECT_EQ(std::memcmp(lanes.data(), scalar.data(), head), 0);
}

TEST(FramePack, UnpackTablesMatchDivision) {
  for (int i = 0; i < 256; ++i) {
    core::PackedVertex p;
    p.r = p.g = p.b = p.size_q = static_cast<std::uint8_t>(i);
    const core::RenderVertex v = core::unpack_vertex(p);
    const float unit = static_cast<float>(i) / 255.0f;
    const float size = static_cast<float>(i) / 255.0f * core::kMaxSplatSize;
    EXPECT_EQ(std::memcmp(&v.color.x, &unit, sizeof(float)), 0) << i;
    EXPECT_EQ(std::memcmp(&v.color.z, &unit, sizeof(float)), 0) << i;
    EXPECT_EQ(std::memcmp(&v.size, &size, sizeof(float)), 0) << i;
  }
}

}  // namespace
}  // namespace psanim
