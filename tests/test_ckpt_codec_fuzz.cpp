// Checkpoint state-codec robustness fuzz: seeded mutations over the
// flight-ring codec (obs::decode_ring, the bounded record ring a rank
// carries into each snapshot), the particle-store codec
// (ckpt::decode_store) and the snapshot container itself
// (ckpt::SnapshotReader: header, section table, per-section CRC), in the
// test_wire_fuzz style. Every truncation,
// every single-bit flip and every absurd count either throws the
// decoder's typed error or decodes to a value that round-trips through
// its encoder. Nothing crashes, nothing is sized from an unchecked count
// (no std::length_error or std::bad_alloc), and every mutant is decoded
// from an exactly-sized buffer so an out-of-bounds read shows under ASan.
// The corpus is generated in-process from fixed seeds (splitmix64), so
// the suite is deterministic and nothing binary is committed.
//
// The checksum those images rest on is pinned here too: the slice-by-8
// ckpt::crc32, its continuation seed, crc32_combine and the snapshot
// writer's folded digest() all equal a bit-at-a-time CRC-32 oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_codec.hpp"
#include "mp/message.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/recorder.hpp"
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

enum class Outcome { kRoundTrip, kRejected };

/// One codec under test: a well-formed payload, the offsets of its
/// length fields, and a check that decodes an exactly-sized copy of a
/// payload and, when it decodes, asserts the value round-trips.
struct Codec {
  std::string name;
  Bytes base;
  std::vector<std::size_t> count_offsets;  ///< u64 counts worth inflating
  std::function<void(const Bytes&)> decode_and_round_trip;
};

/// Decode `bytes` through `c`: only the codec's typed errors may escape
/// (anything else — std::length_error from an unchecked reserve,
/// std::out_of_range from an unchecked index — fails the test).
Outcome run(const Codec& c, const Bytes& bytes) {
  const Bytes exact(bytes.begin(), bytes.end());
  try {
    c.decode_and_round_trip(exact);
    return Outcome::kRoundTrip;
  } catch (const mp::DecodeError&) {
    return Outcome::kRejected;
  } catch (const ckpt::SnapshotError&) {
    return Outcome::kRejected;
  }
}

// --- the flight ring ---------------------------------------------------

/// A ring with every record kind, nested spans, several labels and a
/// replayed record: the shapes a checkpoint carries.
Bytes ring_base() {
  obs::LabelTable labels;
  obs::RankRecorder rec(3);
  rec.enable_ring(16);
  const auto frame = labels.intern("frame");
  const auto exchange = labels.intern("exchange");
  const auto render = labels.intern("render");
  for (std::uint32_t f = 0; f < 3; ++f) {
    const double t = f * 1.5;
    rec.open_span(frame, f, t);
    rec.open_span(exchange, f, t + 0.1);
    rec.flow(obs::RecordKind::kFlowSend, 100 + f, exchange, f, t + 0.2);
    rec.close_span(t + 0.3);
    rec.flow(obs::RecordKind::kFlowRecv, 200 + f, render, f, t + 0.4);
    rec.instant(render, f, t + 0.5);
    rec.close_span(t + 1.0);
  }
  std::vector<obs::SpanRecord> replay = rec.ring_snapshot();
  replay.front().id = 1000;  // a fresh id: re-emitted flagged replayed
  rec.emit_recovered(std::span<const obs::SpanRecord>(replay.data(), 1));
  mp::Writer w;
  obs::encode_ring(w, rec, labels);
  return w.take();
}

/// The ring format written from decoded records (the encode_ring layout,
/// with a local label table in first-appearance order).
Bytes encode_records(const std::vector<obs::SpanRecord>& recs,
                     const obs::LabelTable& labels) {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> local(labels.size(), 0);
  std::vector<bool> seen(labels.size(), false);
  for (const auto& r : recs) {
    if (!seen[r.label]) {
      seen[r.label] = true;
      local[r.label] = static_cast<std::uint32_t>(order.size());
      order.push_back(r.label);
    }
  }
  mp::Writer w;
  w.put<std::uint64_t>(order.size());
  for (const auto id : order) {
    const std::string name = labels.name(id);
    w.put_span(std::span<const char>(name.data(), name.size()));
  }
  w.put<std::uint64_t>(recs.size());
  for (const auto& r : recs) {
    w.put(r.id);
    w.put(r.parent);
    w.put(r.flow);
    w.put(r.begin_v);
    w.put(r.end_v);
    w.put(r.frame);
    w.put(local[r.label]);
    w.put(r.rank);
    w.put(static_cast<std::uint8_t>(r.kind));
    w.put(r.replayed);
  }
  return w.take();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ring_round_trip(const Bytes& bytes) {
  obs::LabelTable labels;
  mp::Reader r(std::span<const std::byte>(bytes.data(), bytes.size()));
  const auto recs = obs::decode_ring(r, labels);
  const Bytes again = encode_records(recs, labels);
  obs::LabelTable labels2;
  mp::Reader r2(std::span<const std::byte>(again.data(), again.size()));
  const auto recs2 = obs::decode_ring(r2, labels2);
  EXPECT_TRUE(r2.done());
  ASSERT_EQ(recs2.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& a = recs[i];
    const auto& b = recs2[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_TRUE(same_bits(a.begin_v, b.begin_v));
    EXPECT_TRUE(same_bits(a.end_v, b.end_v));
    EXPECT_EQ(a.frame, b.frame);
    EXPECT_EQ(labels.name(a.label), labels2.name(b.label));
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.replayed, b.replayed);
  }
}

Codec ring_codec() {
  Codec c;
  c.name = "flight ring";
  c.base = ring_base();
  // The label count leads; the record count follows the label table.
  std::size_t off = sizeof(std::uint64_t);
  std::uint64_t nlabels = 0;
  std::memcpy(&nlabels, c.base.data(), sizeof nlabels);
  for (std::uint64_t i = 0; i < nlabels; ++i) {
    std::uint64_t len = 0;
    std::memcpy(&len, c.base.data() + off, sizeof len);
    off += sizeof len + len;
  }
  c.count_offsets = {0, off};
  c.decode_and_round_trip = ring_round_trip;
  return c;
}

// --- the particle store ------------------------------------------------

constexpr int kAxis = 0;

Bytes store_base() {
  psys::SlicedStore store(kAxis, -4.0f, 4.0f, 4);
  for (int i = 0; i < 12; ++i) {
    psys::Particle p;
    p.pos = {-3.5f + 0.6f * static_cast<float>(i), 0.25f * i, 1.0f};
    p.vel = {0.1f, -0.2f * i, 0.3f};
    p.age = 0.05f * i;
    store.insert(p);
  }
  mp::Writer w;
  ckpt::encode_store(w, store);
  return w.take();
}

void store_round_trip(const Bytes& bytes) {
  psys::SlicedStore store(kAxis, 0.0f, 1.0f, 1);
  mp::Reader r(std::span<const std::byte>(bytes.data(), bytes.size()));
  ckpt::decode_store(r, store);
  // The store encoding is canonical: what decoded re-encodes to exactly
  // the bytes it consumed.
  mp::Writer w;
  ckpt::encode_store(w, store);
  const Bytes again = w.take();
  const std::size_t consumed = bytes.size() - r.remaining();
  ASSERT_EQ(again.size(), consumed);
  EXPECT_EQ(std::memcmp(again.data(), bytes.data(), consumed), 0);
}

Codec store_codec() {
  Codec c;
  c.name = "particle store";
  c.base = store_base();
  // axis (i32), lo, hi (f32), then the u64 slice count and the first
  // slice's u64 particle count.
  const std::size_t slices_at = sizeof(std::int32_t) + 2 * sizeof(float);
  c.count_offsets = {slices_at, slices_at + sizeof(std::uint64_t)};
  c.decode_and_round_trip = store_round_trip;
  return c;
}

// --- the snapshot container ---------------------------------------------

// Header: magic u32, format byte, version, role, reserved (u8 each), rank
// i32, frame u32, seed u64, section count u32; then per section an id
// u32, a u64 payload size, a u32 CRC and the payload.
constexpr std::size_t kRoleAt = 6;
constexpr std::size_t kReservedAt = 7;
constexpr std::size_t kRankAt = 8;
constexpr std::size_t kSectionCountAt = 24;
constexpr std::size_t kFirstSectionAt = 28;
constexpr std::size_t kSectionHeadBytes = 4 + 8 + 4;

struct SectionAt {
  std::size_t offset;  ///< of the section's id field
  std::uint64_t size;
};

/// Walk the section table of an image the reader has accepted.
std::vector<SectionAt> sections_of(const Bytes& image) {
  std::uint32_t n = 0;
  std::memcpy(&n, image.data() + kSectionCountAt, sizeof n);
  std::vector<SectionAt> out;
  std::size_t pos = kFirstSectionAt;
  for (std::uint32_t i = 0; i < n; ++i) {
    SectionAt s{pos, 0};
    std::memcpy(&s.size, image.data() + pos + 4, sizeof s.size);
    out.push_back(s);
    pos += kSectionHeadBytes + static_cast<std::size_t>(s.size);
  }
  return out;
}

/// A calculator image with three sections, the middle one empty.
Bytes snapshot_base() {
  ckpt::SnapshotWriter w(ckpt::Role::kCalculator, 5, 12, 0x5EEDu);
  auto& stores = w.begin_section(ckpt::SectionId::kStores);
  for (std::uint32_t i = 0; i < 24; ++i) stores.put(i * 2654435761u);
  w.begin_section(ckpt::SectionId::kClock);
  auto& telemetry = w.begin_section(ckpt::SectionId::kTelemetry);
  telemetry.put(1.25);
  telemetry.put<std::uint8_t>(9);
  return w.finish();
}

/// What the reader accepts it reads back exactly: its header and each
/// section's payload, written again, give the same bytes. The header
/// carries no checksum, so a flipped rank, frame, seed, role or section id
/// reads back as what it now says (a restore's manifest digest over the
/// whole image catches those); everything else is CRC- or bounds-checked.
void snapshot_round_trip(const Bytes& bytes) {
  const ckpt::SnapshotReader r(bytes);
  const ckpt::SnapshotHeader& h = r.header();
  ckpt::SnapshotWriter w(h.role, h.rank, h.frame, h.seed);
  for (const SectionAt& s : sections_of(bytes)) {
    std::uint32_t id = 0;
    std::memcpy(&id, bytes.data() + s.offset, sizeof id);
    mp::Reader payload = r.section(static_cast<ckpt::SectionId>(id));
    mp::Writer& out = w.begin_section(static_cast<ckpt::SectionId>(id));
    for (const std::byte b : payload.raw(payload.remaining())) out.put(b);
  }
  EXPECT_EQ(w.finish(), bytes);
}

Codec snapshot_codec() {
  Codec c;
  c.name = "snapshot container";
  c.base = snapshot_base();
  for (const SectionAt& s : sections_of(c.base)) {
    c.count_offsets.push_back(s.offset + 4);  // the u64 payload sizes
  }
  c.decode_and_round_trip = snapshot_round_trip;
  return c;
}

std::vector<Codec> codecs() {
  return {ring_codec(), store_codec(), snapshot_codec()};
}

// --- the corpus ------------------------------------------------------------

TEST(CkptCodecFuzz, BasePayloadsRoundTrip) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(run(c, c.base), Outcome::kRoundTrip);
  }
}

TEST(CkptCodecFuzz, TruncationAtEveryLengthIsRejected) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    for (std::size_t len = 0; len < c.base.size(); ++len) {
      const Bytes cut(c.base.begin(),
                      c.base.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_EQ(run(c, cut), Outcome::kRejected) << "cut at " << len;
    }
  }
}

TEST(CkptCodecFuzz, SingleBitFlipsRoundTripOrAreRejected) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    for (std::size_t bit = 0; bit < c.base.size() * 8; ++bit) {
      Bytes m = c.base;
      m[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      (run(c, m) == Outcome::kRoundTrip ? decoded : rejected) += 1;
    }
    // Both outcomes occur: flips in counts, indices, kinds and flags are
    // refused; flips in record data decode (the codecs carry no checksum —
    // the snapshot frame's CRC guards them in a real image).
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

TEST(CkptCodecFuzz, AbsurdCountsAreRejectedBeforeAllocating) {
  constexpr std::uint64_t kAbsurd[] = {
      std::numeric_limits<std::uint64_t>::max(),
      std::uint64_t{1} << 62,
      std::uint64_t{1} << 40,
      1'000'000,
  };
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    for (const std::size_t off : c.count_offsets) {
      for (const std::uint64_t n : kAbsurd) {
        Bytes m = c.base;
        std::memcpy(m.data() + off, &n, sizeof n);
        EXPECT_EQ(run(c, m), Outcome::kRejected)
            << "count " << n << " at offset " << off;
      }
    }
  }
}

TEST(CkptCodecFuzz, SeededMultiByteCorruptionRoundTripsOrIsRejected) {
  for (const auto& c : codecs()) {
    SCOPED_TRACE(c.name);
    Rng rng{0xC0DEC};
    for (int trial = 0; trial < 2000; ++trial) {
      Bytes m = c.base;
      const auto hits = 1 + rng.below(4);
      for (std::uint64_t h = 0; h < hits; ++h) {
        m[rng.below(m.size())] = static_cast<std::byte>(rng.below(256));
      }
      (void)run(c, m);  // either outcome; only a crash or a stray throw fails
    }
  }
}

TEST(CkptCodecFuzz, RingRejectsBadLabelIndexKindAndReplayedFlag) {
  const Codec c = ring_codec();
  // The first record starts right after the record count.
  const std::size_t rec0 = c.count_offsets[1] + sizeof(std::uint64_t);
  const std::size_t label_at = rec0 + 3 * 8 + 2 * 8 + 4;
  const std::size_t kind_at = label_at + 4 + 4;
  const std::size_t replayed_at = kind_at + 1;
  {
    Bytes m = c.base;
    const std::uint32_t bad = 3;  // the base ring has labels 0-2
    std::memcpy(m.data() + label_at, &bad, sizeof bad);
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "label index";
  }
  {
    Bytes m = c.base;
    m[kind_at] = static_cast<std::byte>(200);
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "record kind";
    m[kind_at] = static_cast<std::byte>(obs::RecordKind::kFlowRecv);
    EXPECT_EQ(run(c, m), Outcome::kRoundTrip) << "largest valid kind";
  }
  {
    Bytes m = c.base;
    m[replayed_at] = static_cast<std::byte>(2);
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "replayed flag";
  }
}

TEST(CkptCodecFuzz, StoreRejectsUnorderedBoundsAndZeroSlices) {
  const Codec c = store_codec();
  {
    Bytes m = c.base;
    const float lo = 5.0f;  // above hi
    std::memcpy(m.data() + sizeof(std::int32_t), &lo, sizeof lo);
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "lo > hi";
  }
  {
    Bytes m = c.base;
    const std::uint64_t zero = 0;
    std::memcpy(m.data() + c.count_offsets[0], &zero, sizeof zero);
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "zero slices";
  }
}

TEST(CkptCodecFuzz, SnapshotFlipsOutsideTheUnguardedHeaderAreRejected) {
  // Magic, format byte, version, reserved byte, section count, sizes,
  // CRCs and payloads are all checked: a single flipped bit anywhere in
  // them is refused. Only role, rank, frame, seed and section ids may read
  // back (as the values they now hold).
  const Codec c = snapshot_codec();
  std::vector<bool> unguarded(c.base.size(), false);
  for (std::size_t i = kRoleAt; i < kSectionCountAt; ++i) {
    unguarded[i] = i != kReservedAt;
  }
  for (const SectionAt& s : sections_of(c.base)) {
    for (std::size_t i = 0; i < 4; ++i) unguarded[s.offset + i] = true;
  }
  for (std::size_t bit = 0; bit < c.base.size() * 8; ++bit) {
    if (unguarded[bit / 8]) continue;
    Bytes m = c.base;
    m[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "bit " << bit;
  }
  for (std::size_t bit = kRankAt * 8; bit < kSectionCountAt * 8; ++bit) {
    Bytes m = c.base;
    m[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_EQ(run(c, m), Outcome::kRoundTrip) << "bit " << bit;
  }
}

TEST(CkptCodecFuzz, SnapshotAbsurdSectionCountsAreRejected) {
  const Codec c = snapshot_codec();
  for (const std::uint32_t n :
       {std::numeric_limits<std::uint32_t>::max(), std::uint32_t{1} << 31,
        std::uint32_t{1'000'000}, std::uint32_t{4}, std::uint32_t{2},
        std::uint32_t{0}}) {
    Bytes m = c.base;
    std::memcpy(m.data() + kSectionCountAt, &n, sizeof n);
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "section_count " << n;
  }
}

TEST(CkptCodecFuzz, SnapshotRejectsUnknownRoleDuplicateIdsAndTrailingBytes) {
  const Codec c = snapshot_codec();
  for (const std::uint8_t role : {std::uint8_t{3}, std::uint8_t{255}}) {
    Bytes m = c.base;
    m[kRoleAt] = static_cast<std::byte>(role);
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "role " << int{role};
  }
  {
    Bytes m = c.base;
    m[kReservedAt] = std::byte{1};
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "reserved byte";
  }
  {
    // The last section relabelled as the first: both still pass their CRC,
    // but an image must not answer one id with two payloads.
    Bytes m = c.base;
    const auto secs = sections_of(m);
    std::memcpy(m.data() + secs.back().offset, m.data() + secs.front().offset,
                sizeof(std::uint32_t));
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "duplicate section id";
  }
  {
    Bytes m = c.base;
    m.push_back(std::byte{0});
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "one trailing byte";
  }
  {
    // A well-formed fourth section the count does not announce.
    ckpt::SnapshotWriter extra(ckpt::Role::kCalculator, 5, 12, 0x5EEDu);
    extra.begin_section(ckpt::SectionId::kLbState).put<std::uint32_t>(7);
    const Bytes tail = extra.finish();
    Bytes m = c.base;
    m.insert(m.end(), tail.begin() + kFirstSectionAt, tail.end());
    EXPECT_EQ(run(c, m), Outcome::kRejected) << "uncounted section";
  }
}

// --- the checksum ----------------------------------------------------------

/// CRC-32 one bit at a time, straight from the reflected polynomial: the
/// oracle the table-driven crc32 must equal.
std::uint32_t crc32_oracle(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

std::span<const std::byte> view(const Bytes& b, std::size_t off,
                                std::size_t len) {
  return std::span<const std::byte>(b).subspan(off, len);
}

TEST(CkptCodecFuzz, CrcMatchesTheBitwiseOracleAtEveryLengthAndOffset) {
  Rng rng{0xC12C};
  const Bytes buf = random_bytes(rng, 8 + 64);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(ckpt::crc32(view(buf, off, len)),
                crc32_oracle(view(buf, off, len)))
          << "offset " << off << " length " << len;
    }
  }
  for (int trial = 0; trial < 24; ++trial) {
    const Bytes big = random_bytes(rng, 1 + rng.below(100'000));
    const std::size_t off = rng.below(std::min<std::size_t>(big.size(), 8));
    EXPECT_EQ(ckpt::crc32(view(big, off, big.size() - off)),
              crc32_oracle(view(big, off, big.size() - off)))
        << big.size() << " bytes at offset " << off;
  }
}

TEST(CkptCodecFuzz, CrcContinuesAcrossBuffersAndCombines) {
  Rng rng{0xC0B1};
  const Bytes all = random_bytes(rng, 4096);
  const auto whole = [&](std::size_t n) { return crc32_oracle(view(all, 0, n)); };
  std::vector<std::pair<std::size_t, std::size_t>> cuts;  // (len_a, len_b)
  for (const std::size_t a : {0u, 1u, 7u, 8u, 9u, 100u}) {
    for (const std::size_t b : {0u, 1u, 3u, 8u, 15u, 64u, 1000u}) {
      cuts.emplace_back(a, b);
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t a = rng.below(2049);
    cuts.emplace_back(a, rng.below(all.size() - a + 1));
  }
  for (const auto& [len_a, len_b] : cuts) {
    const auto a = view(all, 0, len_a);
    const auto b = view(all, len_a, len_b);
    EXPECT_EQ(ckpt::crc32(b, ckpt::crc32(a)), whole(len_a + len_b))
        << "continue " << len_a << " + " << len_b;
    EXPECT_EQ(ckpt::crc32_combine(ckpt::crc32(a), ckpt::crc32(b), len_b),
              whole(len_a + len_b))
        << "combine " << len_a << " + " << len_b;
  }
}

// crc32_combine shifts by a table product per byte of len_b below 4 GiB
// and by squarings above. Continuing a CRC over len_b zero bytes is the
// same shift, so every length byte is checked against crc32 itself; past
// 4 GiB, where no buffer fits, shifts must compose.
TEST(CkptCodecFuzz, CrcCombineShiftsAgreeAtEveryLengthByte) {
  Rng rng{0x5EED};
  const Bytes zeros((std::size_t{1} << 24) + 300);
  for (const std::size_t len :
       {std::size_t{255}, std::size_t{256}, std::size_t{65535},
        std::size_t{65536}, std::size_t{65536 + 257},
        (std::size_t{1} << 24) - 1, std::size_t{1} << 24,
        (std::size_t{1} << 24) + 300}) {
    const auto c = static_cast<std::uint32_t>(rng.next());
    const auto z = view(zeros, 0, len);
    EXPECT_EQ(ckpt::crc32_combine(c, ckpt::crc32(z), len), ckpt::crc32(z, c))
        << "len " << len;
  }
  const std::uint64_t four_gib = std::uint64_t{1} << 32;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> splits = {
      {four_gib - 1, 1},        {four_gib, four_gib},
      {four_gib - 3, 70000},    {std::uint64_t{1} << 40, 12345},
      {0xFFFFFFFFFFFFull, 1},   {std::uint64_t{1} << 63, 255}};
  for (const auto& [a, b] : splits) {
    const auto c = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(ckpt::crc32_combine(ckpt::crc32_combine(c, 0, a), 0, b),
              ckpt::crc32_combine(c, 0, a + b))
        << a << " + " << b;
  }
}

TEST(CkptCodecFuzz, SnapshotDigestIsTheCrcOfTheWholeImage) {
  Rng rng{0xD16E};
  // No sections, one empty section, empty sections between full ones,
  // sizes either side of the writer's 64-byte combine threshold, and many
  // sections of random size.
  std::vector<std::vector<std::size_t>> shapes = {
      {},  {0}, {0, 0, 0}, {5, 0, 17, 0}, {1}, {8}, {4096},
      {63, 64, 65, 0, 62}};
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::size_t> sizes(1 + rng.below(40));
    for (auto& n : sizes) n = rng.below(3) == 0 ? 0 : rng.below(3000);
    shapes.push_back(std::move(sizes));
  }
  for (const auto& sizes : shapes) {
    ckpt::SnapshotWriter w(ckpt::Role::kCalculator, 3,
                           static_cast<std::uint32_t>(rng.below(1000)),
                           rng.next());
    std::uint32_t id = 0;
    for (const std::size_t n : sizes) {
      mp::Writer& out = w.begin_section(static_cast<ckpt::SectionId>(++id));
      for (const std::byte b : random_bytes(rng, n)) out.put(b);
    }
    const Bytes image = w.finish();
    EXPECT_EQ(w.digest(), crc32_oracle(image))
        << sizes.size() << " sections, " << image.size() << " bytes";
    const ckpt::SnapshotReader r(image);  // and the image still reads
    EXPECT_EQ(r.header().section_count, sizes.size());
  }
}

}  // namespace
}  // namespace psanim
