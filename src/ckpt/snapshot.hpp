#pragma once

// Snapshot images: SnapshotWriter assembles one rank's frame-barrier state
// into a self-describing byte image; SnapshotReader validates an image
// (magic, version, per-section CRC) and hands out per-section readers.
//
// The writer CRCs each byte once. Sections are written in place into one
// buffer; a section's CRC is taken when it closes, and digest() — the
// CRC-32 of the whole image, which manifests record — is folded from the
// header and section CRCs in finish(), not re-read from the image.
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

  /// Close the open section, if any, open a new one and return the writer
  /// for its payload. The writer appends to the image itself: fill one
  /// section before beginning the next.
  mp::Writer& begin_section(SectionId id);

  /// Close the last section and return the image. The writer is spent
  /// afterwards, except for digest().
  std::vector<std::byte> finish();

  /// CRC-32 of the whole image finish() returned (equal to crc32 over
  /// it), computed in finish() without a second pass over the bytes.
  std::uint32_t digest() const { return digest_; }

 private:
  struct Section {
    std::size_t head_at;  ///< offset of the section's id field
    std::uint64_t size;
    std::uint32_t crc;
  };

  void close(Section& s);

  mp::Writer out_;
  /// Every section begun; only the last can still be open.
  std::vector<Section> sections_;
  /// CRC of the bytes after the image header, section by section.
  std::uint32_t tail_crc_ = 0;
  std::uint32_t digest_ = 0;
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
