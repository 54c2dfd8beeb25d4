#include "ckpt/snapshot.hpp"

#include <array>
#include <cstring>
#include <string>
#include <type_traits>

namespace psanim::ckpt {

namespace {

constexpr std::size_t kSectionCountAt = 24;
constexpr std::size_t kHeaderBytes = 28;
constexpr std::size_t kSectionHeadBytes = 4 + 8 + 4;  // id, size, CRC
// Payloads shorter than this are CRC'd a second time into the tail
// instead of combined: below it a pass over the bytes is cheaper than a
// crc32_combine.
constexpr std::size_t kCombineFrom = 64;

}  // namespace

SnapshotWriter::SnapshotWriter(Role role, int rank, std::uint32_t frame,
                               std::uint64_t seed) {
  out_.put(kSnapshotMagic);
  out_.put(kFormatMagicByte);
  out_.put(kFormatVersion);
  out_.put(static_cast<std::uint8_t>(role));
  out_.put<std::uint8_t>(0);  // reserved
  out_.put<std::int32_t>(rank);
  out_.put(frame);
  out_.put(seed);
  out_.put<std::uint32_t>(0);  // section count, set by finish()
}

mp::Writer& SnapshotWriter::begin_section(SectionId id) {
  if (!sections_.empty()) close(sections_.back());
  sections_.push_back(Section{out_.size(), 0, 0});
  out_.put(static_cast<std::uint32_t>(id));
  out_.put<std::uint64_t>(0);  // payload size and CRC, set by finish()
  out_.put<std::uint32_t>(0);
  return out_;
}

void SnapshotWriter::close(Section& s) {
  const auto payload = std::span<const std::byte>(out_.bytes())
                           .subspan(s.head_at + kSectionHeadBytes);
  s.size = payload.size();
  s.crc = crc32(payload);
  // Fold the finished section head and payload into the tail CRC.
  std::array<std::byte, kSectionHeadBytes> head{};
  std::memcpy(head.data(), out_.bytes().data() + s.head_at, 4);
  std::memcpy(head.data() + 4, &s.size, sizeof s.size);
  std::memcpy(head.data() + 12, &s.crc, sizeof s.crc);
  tail_crc_ = crc32(head, tail_crc_);
  tail_crc_ = s.size < kCombineFrom
                  ? crc32(payload, tail_crc_)
                  : crc32_combine(tail_crc_, s.crc, s.size);
}

std::vector<std::byte> SnapshotWriter::finish() {
  if (!sections_.empty()) close(sections_.back());
  std::vector<std::byte> image = out_.take();
  const auto count = static_cast<std::uint32_t>(sections_.size());
  std::memcpy(image.data() + kSectionCountAt, &count, sizeof count);
  for (const Section& s : sections_) {
    std::memcpy(image.data() + s.head_at + 4, &s.size, sizeof s.size);
    std::memcpy(image.data() + s.head_at + 12, &s.crc, sizeof s.crc);
  }
  sections_.clear();
  digest_ = crc32_combine(
      crc32(std::span<const std::byte>(image).first(kHeaderBytes)),
      tail_crc_, image.size() - kHeaderBytes);
  return image;
}

SnapshotReader::SnapshotReader(std::vector<std::byte> image)
    : image_(std::move(image)) {
  std::size_t pos = 0;
  const auto read = [&]<typename T>(std::type_identity<T>) -> T {
    if (image_.size() - pos < sizeof(T)) {
      throw SnapshotError("snapshot: truncated image");
    }
    T v;
    std::memcpy(&v, image_.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  };
  const auto u8 = [&] { return read(std::type_identity<std::uint8_t>{}); };
  const auto u32 = [&] { return read(std::type_identity<std::uint32_t>{}); };

  if (u32() != kSnapshotMagic) {
    throw SnapshotError("snapshot: bad magic — not a psanim snapshot");
  }
  if (u8() != kFormatMagicByte) {
    throw SnapshotError("snapshot: bad format magic byte");
  }
  const auto version = u8();
  if (version != kFormatVersion) {
    throw SnapshotError("snapshot: format version " +
                        std::to_string(version) + ", this build reads " +
                        std::to_string(kFormatVersion));
  }
  const auto role = u8();
  if (role > static_cast<std::uint8_t>(Role::kCalculator)) {
    throw SnapshotError("snapshot: unknown role " + std::to_string(role));
  }
  hdr_.role = static_cast<Role>(role);
  if (u8() != 0) throw SnapshotError("snapshot: nonzero reserved byte");
  hdr_.rank = read(std::type_identity<std::int32_t>{});
  hdr_.frame = u32();
  hdr_.seed = read(std::type_identity<std::uint64_t>{});
  hdr_.section_count = u32();

  for (std::uint32_t i = 0; i < hdr_.section_count; ++i) {
    const auto id = static_cast<SectionId>(u32());
    if (has(id)) {
      throw SnapshotError("snapshot: duplicate section " +
                          std::to_string(static_cast<std::uint32_t>(id)));
    }
    const auto size = read(std::type_identity<std::uint64_t>{});
    const auto crc = u32();
    if (size > image_.size() - pos) {
      throw SnapshotError("snapshot: truncated section " +
                          std::to_string(static_cast<std::uint32_t>(id)));
    }
    const auto payload = std::span<const std::byte>(image_).subspan(
        pos, static_cast<std::size_t>(size));
    if (crc32(payload) != crc) {
      throw SnapshotError("snapshot: CRC mismatch in section " +
                          std::to_string(static_cast<std::uint32_t>(id)) +
                          " — image is corrupt");
    }
    spans_.push_back(Span{id, pos, static_cast<std::size_t>(size)});
    pos += static_cast<std::size_t>(size);
  }
  if (pos != image_.size()) {
    throw SnapshotError("snapshot: " + std::to_string(image_.size() - pos) +
                        " trailing bytes after the last section");
  }
}

bool SnapshotReader::has(SectionId id) const {
  for (const auto& s : spans_) {
    if (s.id == id) return true;
  }
  return false;
}

mp::Reader SnapshotReader::section(SectionId id) const {
  for (const auto& s : spans_) {
    if (s.id == id) {
      return mp::Reader{
          std::span<const std::byte>(image_).subspan(s.offset, s.size)};
    }
  }
  throw SnapshotError("snapshot: missing section " +
                      std::to_string(static_cast<std::uint32_t>(id)));
}

}  // namespace psanim::ckpt
