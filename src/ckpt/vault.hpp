#pragma once

// Vault: in-memory checkpoint storage shared by every rank of a run — the
// model's stand-in for a parallel filesystem or peer checkpoint store.
//
// Each rank stores its own snapshot image under (rank, frame); the manager
// seals a Manifest per snapshot frame after collecting every rank's digest
// (size + CRC), which is what makes a checkpoint *coordinated*: a frame is
// restorable only once the manifest says all participating ranks landed
// their images.
//
// Thread safety: store/fetch/seal are mutex-guarded. Images live in a
// std::map, so a fetched image pointer stays valid across later stores
// (node-based storage); a rank only ever overwrites its *own* images, and
// only at points where nobody reads them (replayed captures).

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "ckpt/snapshot.hpp"

namespace psanim::ckpt {

/// One rank's digest inside a sealed manifest.
struct ManifestEntry {
  int rank = -1;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

/// The manager's record of one completed coordinated checkpoint.
struct Manifest {
  std::uint32_t frame = 0;
  std::vector<ManifestEntry> entries;  ///< ascending by rank
};

class Vault {
 public:
  Vault() = default;
  Vault(const Vault& o);
  Vault& operator=(const Vault& o);

  void store(int rank, std::uint32_t frame, std::vector<std::byte> image);
  /// Pointer into the vault (stable across stores), or nullptr.
  const std::vector<std::byte>* fetch(int rank, std::uint32_t frame) const;

  void seal(Manifest m);
  std::optional<Manifest> manifest(std::uint32_t frame) const;
  /// Ascending frames with a sealed manifest.
  std::vector<std::uint32_t> sealed_frames() const;
  /// Is `frame` restorable (a sealed manifest exists for it)?
  bool has_sealed(std::uint32_t frame) const;
  /// Latest sealed frame <= `frame`, if any — what a recovery can fall
  /// back to when the exact frame it wanted is missing.
  std::optional<std::uint32_t> latest_sealed_at_or_before(
      std::uint32_t frame) const;

  std::size_t image_count() const;
  std::size_t total_bytes() const;

 private:
  mutable std::mutex mu_;
  std::map<std::pair<int, std::uint32_t>, std::vector<std::byte>> images_;
  std::map<std::uint32_t, Manifest> manifests_;
};

/// `rank`'s entry in the sealed manifest for `frame`. Throws SnapshotError
/// when the frame is not sealed or its manifest does not list the rank.
ManifestEntry sealed_entry(const Vault& vault, int rank, std::uint32_t frame);

/// Open the image `digest.rank` stored for `frame`, trusting none of it
/// until it matches: its size and whole-image CRC-32 must equal `digest`
/// (the image header has no checksum of its own, so this is what catches a
/// flipped rank, frame, seed or section id), and its header must name
/// `role`, `digest.rank`, `frame` and `seed`. Every restore goes through
/// here. Throws SnapshotError on a missing image or any mismatch.
SnapshotReader open_image(const Vault& vault, const ManifestEntry& digest,
                          Role role, std::uint32_t frame, std::uint64_t seed);

}  // namespace psanim::ckpt
