#pragma once

// psanim::ckpt snapshot format constants and integrity primitives.
//
// A snapshot is a versioned, self-describing binary image of one rank's
// frame-barrier state: a fixed header (magic, format version, role, rank,
// frame, root seed) followed by typed sections, each carrying its own
// length and CRC-32. The format magic byte and version are shared with the
// core wire codecs (core::put_control_header), so a snapshot produced by
// one build and a control message produced by another fail loudly on skew
// instead of misdecoding.
//
// What is NOT in a snapshot, by design of the execution model:
//  * RNG state — every stream is derived fresh from (seed, system, frame,
//    action, calc); the base generators never advance, so the header's
//    seed fully describes them.
//  * Virtual clocks — recovery costs time; clocks never roll back. A
//    kClock section records the readings for forensics only.
//  * Pending exchanges — snapshots are captured at the frame barrier,
//    where the only in-flight messages are image-generator frame acks,
//    whose count is a pure function of (crash frame, epoch start) and is
//    re-derived on rollback.

#include <cstdint>
#include <span>
#include <stdexcept>

namespace psanim::ckpt {

/// First 32 bits of every snapshot image ("PSK1").
inline constexpr std::uint32_t kSnapshotMagic = 0x314B5350u;
/// One-byte format magic shared with the wire control header.
inline constexpr std::uint8_t kFormatMagicByte = 0xA7;
/// Bump on any incompatible change to snapshot or control layouts.
inline constexpr std::uint8_t kFormatVersion = 1;

/// Which role produced a snapshot (restores verify they read their own).
enum class Role : std::uint8_t {
  kManager = 0,
  kImageGen = 1,
  kCalculator = 2,
};

/// Section identifiers. A role writes only the sections it owns; readers
/// look sections up by id, so optional sections can be skipped.
enum class SectionId : std::uint32_t {
  kStores = 1,     ///< per-system sliced particle stores (calculators)
  kDecomps = 2,    ///< per-system decomposition intervals
  kLbState = 3,    ///< per-system load-balancer policy state (manager)
  kTelemetry = 4,  ///< per-frame stats accumulated so far
  kClock = 5,      ///< virtual-clock readings at capture (forensics)
  kFlightRecorder = 6,  ///< bounded ring of recent obs records (optional)
};

/// Thrown on any snapshot integrity failure: bad magic, version skew,
/// CRC mismatch, truncation, or a section/field that contradicts the
/// restoring role's configuration.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Passing the CRC of a
/// preceding buffer as `prev` continues it: crc32(b, crc32(a)) is the CRC
/// of a followed by b.
std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t prev = 0);

/// The CRC of a followed by b, from crc_a = crc32(a), crc_b = crc32(b) and
/// b's length alone, in O(log len_b) 32-bit steps (zlib's x^(2^n) form).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

}  // namespace psanim::ckpt
