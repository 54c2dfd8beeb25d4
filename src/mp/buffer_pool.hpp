#pragma once

// Size-classed recycling pool for message payload buffers.
//
// Every payload that travels through the runtime is backed by a
// `std::vector<std::byte>` drawn from this pool and returned to it when the
// owning `Payload` dies. Buffers are binned by power-of-two capacity, so a
// steady-state frame — whose message sizes repeat frame after frame — is
// served entirely from the free lists and performs zero heap allocations on
// the message path. `Stats` counts hits and misses; a miss is exactly one
// heap allocation, which makes the pool the measurement point for the
// wall-clock bench suite's allocation guard.
//
// The pool is process-global and thread-safe (one mutex; the critical
// section is a couple of pointer moves). Because every runtime in the
// process shares it, its stats are not attributable to one run: callers
// that want the numbers read `stats()` around their own window.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace psanim::mp {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;  ///< total acquire() calls
    std::uint64_t hits = 0;      ///< served from a free list
    std::uint64_t misses = 0;    ///< heap allocations (acquires - hits)
    std::uint64_t releases = 0;  ///< buffers handed back
    std::uint64_t dropped = 0;   ///< released buffers freed (cap/oversize)
  };

  /// The process-wide pool used by Payload/Writer.
  static BufferPool& global();

  /// An empty vector with capacity >= min_capacity. Pool-served when a
  /// buffer of the right size class is free, heap-allocated otherwise.
  std::vector<std::byte> acquire(std::size_t min_capacity);

  /// Hand a buffer back for reuse. Cleared but capacity kept.
  void release(std::vector<std::byte> buf);

  /// Grow `buf` to capacity >= min_capacity preserving contents, sourcing
  /// the replacement from the pool and recycling the old storage.
  void grow(std::vector<std::byte>& buf, std::size_t min_capacity);

  Stats stats() const;
  void reset_stats();

  /// Free every cached buffer (stats untouched). Used by tests/benches to
  /// start from a cold pool.
  void trim();

  /// Number of buffers currently cached across all size classes.
  std::size_t cached_buffers() const;

  /// Disabling turns acquire/release into plain allocate/free so benches
  /// can measure the unpooled baseline in the same process.
  void set_enabled(bool on);
  bool enabled() const;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  // Capacities are rounded up to powers of two between 2^kMinClassBits and
  // 2^kMaxClassBits; larger requests bypass the pool entirely.
  static constexpr std::size_t kMinClassBits = 6;   // 64 B
  static constexpr std::size_t kMaxClassBits = 24;  // 16 MiB
  static constexpr std::size_t kClasses = kMaxClassBits - kMinClassBits + 1;
  static constexpr std::size_t kMaxPerClass = 64;

  static std::size_t class_of(std::size_t capacity);

  mutable std::mutex mu_;
  std::vector<std::vector<std::byte>> free_[kClasses];
  Stats stats_;
  bool enabled_ = true;
};

}  // namespace psanim::mp
