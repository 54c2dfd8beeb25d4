#include "ckpt/snapshot.hpp"

#include <cstring>
#include <string>
#include <type_traits>

namespace psanim::ckpt {

SnapshotWriter::SnapshotWriter(Role role, int rank, std::uint32_t frame,
                               std::uint64_t seed) {
  hdr_.role = role;
  hdr_.rank = rank;
  hdr_.frame = frame;
  hdr_.seed = seed;
}

mp::Writer& SnapshotWriter::begin_section(SectionId id) {
  sections_.emplace_back(id, mp::Writer{});
  return sections_.back().second;
}

std::vector<std::byte> SnapshotWriter::finish() {
  mp::Writer head;
  head.put(kSnapshotMagic);
  head.put(kFormatMagicByte);
  head.put(kFormatVersion);
  head.put(static_cast<std::uint8_t>(hdr_.role));
  head.put<std::uint8_t>(0);  // reserved
  head.put<std::int32_t>(hdr_.rank);
  head.put(hdr_.frame);
  head.put(hdr_.seed);
  head.put<std::uint32_t>(static_cast<std::uint32_t>(sections_.size()));

  std::vector<std::byte> out = head.take();
  for (auto& [id, w] : sections_) {
    const auto& payload = w.bytes();
    mp::Writer sec;
    sec.put(static_cast<std::uint32_t>(id));
    sec.put<std::uint64_t>(payload.size());
    sec.put(crc32(payload));
    const auto& sec_bytes = sec.bytes();
    out.insert(out.end(), sec_bytes.begin(), sec_bytes.end());
    out.insert(out.end(), payload.begin(), payload.end());
  }
  sections_.clear();
  return out;
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
