#include "ckpt/vault.hpp"

#include <span>
#include <string>

namespace psanim::ckpt {

Vault::Vault(const Vault& o) {
  std::lock_guard lock(o.mu_);
  images_ = o.images_;
  manifests_ = o.manifests_;
}

Vault& Vault::operator=(const Vault& o) {
  if (this == &o) return *this;
  // Lock ordering: copy the source under its own lock first, then swap in
  // under ours — never hold both.
  auto images = [&] {
    std::lock_guard lock(o.mu_);
    return o.images_;
  }();
  auto manifests = [&] {
    std::lock_guard lock(o.mu_);
    return o.manifests_;
  }();
  std::lock_guard lock(mu_);
  images_ = std::move(images);
  manifests_ = std::move(manifests);
  return *this;
}

void Vault::store(int rank, std::uint32_t frame,
                  std::vector<std::byte> image) {
  std::lock_guard lock(mu_);
  images_[{rank, frame}] = std::move(image);
}

const std::vector<std::byte>* Vault::fetch(int rank,
                                           std::uint32_t frame) const {
  std::lock_guard lock(mu_);
  const auto it = images_.find({rank, frame});
  return it == images_.end() ? nullptr : &it->second;
}

void Vault::seal(Manifest m) {
  std::lock_guard lock(mu_);
  manifests_[m.frame] = std::move(m);
}

std::optional<Manifest> Vault::manifest(std::uint32_t frame) const {
  std::lock_guard lock(mu_);
  const auto it = manifests_.find(frame);
  if (it == manifests_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint32_t> Vault::sealed_frames() const {
  std::lock_guard lock(mu_);
  std::vector<std::uint32_t> out;
  out.reserve(manifests_.size());
  for (const auto& [frame, m] : manifests_) out.push_back(frame);
  return out;
}

bool Vault::has_sealed(std::uint32_t frame) const {
  std::lock_guard lock(mu_);
  return manifests_.find(frame) != manifests_.end();
}

std::optional<std::uint32_t> Vault::latest_sealed_at_or_before(
    std::uint32_t frame) const {
  std::lock_guard lock(mu_);
  auto it = manifests_.upper_bound(frame);
  if (it == manifests_.begin()) return std::nullopt;
  return std::prev(it)->first;
}

std::size_t Vault::image_count() const {
  std::lock_guard lock(mu_);
  return images_.size();
}

std::size_t Vault::total_bytes() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, img] : images_) n += img.size();
  return n;
}

ManifestEntry sealed_entry(const Vault& vault, int rank,
                           std::uint32_t frame) {
  const auto man = vault.manifest(frame);
  if (!man) {
    throw SnapshotError("no sealed manifest for frame " +
                        std::to_string(frame));
  }
  for (const ManifestEntry& e : man->entries) {
    if (e.rank == rank) return e;
  }
  throw SnapshotError("the sealed manifest for frame " +
                      std::to_string(frame) + " does not list rank " +
                      std::to_string(rank));
}

SnapshotReader open_image(const Vault& vault, const ManifestEntry& digest,
                          Role role, std::uint32_t frame,
                          std::uint64_t seed) {
  const std::string who = "rank " + std::to_string(digest.rank);
  const std::vector<std::byte>* image = vault.fetch(digest.rank, frame);
  if (!image) {
    throw SnapshotError(who + ": no checkpoint image for frame " +
                        std::to_string(frame));
  }
  if (image->size() != digest.bytes) {
    throw SnapshotError(who + ": image is " + std::to_string(image->size()) +
                        " bytes, its digest says " +
                        std::to_string(digest.bytes));
  }
  if (crc32(std::span<const std::byte>(*image)) != digest.crc) {
    throw SnapshotError(who + ": image CRC does not match its digest");
  }
  SnapshotReader snap(*image);
  const SnapshotHeader& h = snap.header();
  if (h.role != role || h.rank != digest.rank || h.frame != frame ||
      h.seed != seed) {
    throw SnapshotError(who + ": image header does not match the restoring "
                              "role, rank, frame and seed");
  }
  return snap;
}

}  // namespace psanim::ckpt
