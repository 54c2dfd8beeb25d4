#pragma once

// Snapshot images: SnapshotWriter assembles one rank's frame-barrier state
// into a self-describing byte image; SnapshotReader validates an image
// (magic, version, per-section CRC) and hands out per-section readers.
//
// Image layout (all little-endian PODs via mp::Writer):
//
//   u32  kSnapshotMagic
//   u8   kFormatMagicByte      -- shared with wire control headers
//   u8   kFormatVersion
//   u8   role                  -- ckpt::Role
//   u8   reserved (0)
//   i32  rank
//   u32  frame                 -- barrier frame the state is valid AFTER
//   u64  seed                  -- root RNG seed (self-description)
//   u32  section_count
//   section_count x:
//     u32  section id
//     u64  payload bytes
//     u32  CRC-32 of payload
//     payload

#include <cstdint>
#include <deque>
#include <vector>

#include "ckpt/format.hpp"
#include "mp/message.hpp"

namespace psanim::ckpt {

struct SnapshotHeader {
  Role role = Role::kManager;
  int rank = -1;
  std::uint32_t frame = 0;
  std::uint64_t seed = 0;
  std::uint32_t section_count = 0;
};

class SnapshotWriter {
 public:
  SnapshotWriter(Role role, int rank, std::uint32_t frame,
                 std::uint64_t seed);

  /// Open a new section and return the writer for its payload. The
  /// reference stays valid until finish() — sections live in a deque.
  mp::Writer& begin_section(SectionId id);

  /// Assemble header + sections into the final image. The writer is spent
  /// afterwards.
  std::vector<std::byte> finish();

 private:
  SnapshotHeader hdr_;
  std::deque<std::pair<SectionId, mp::Writer>> sections_;
};

class SnapshotReader {
 public:
  /// Takes ownership of a copy of the image; throws SnapshotError on bad
  /// magic, version skew, an unknown role, a nonzero reserved byte,
  /// truncation, a duplicated section id, bytes after the last section,
  /// or any section CRC mismatch.
  explicit SnapshotReader(std::vector<std::byte> image);

  const SnapshotHeader& header() const { return hdr_; }

  bool has(SectionId id) const;
  /// Reader over one section's payload; throws SnapshotError if absent.
  mp::Reader section(SectionId id) const;

 private:
  struct Span {
    SectionId id;
    std::size_t offset;
    std::size_t size;
  };

  std::vector<std::byte> image_;
  SnapshotHeader hdr_;
  std::vector<Span> spans_;
};

}  // namespace psanim::ckpt
