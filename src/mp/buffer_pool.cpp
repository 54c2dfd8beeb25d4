#include "mp/buffer_pool.hpp"

#include <bit>
#include <cstring>

namespace psanim::mp {

BufferPool& BufferPool::global() {
  static BufferPool pool;
  return pool;
}

std::size_t BufferPool::class_of(std::size_t capacity) {
  const std::size_t rounded =
      std::bit_ceil(capacity < (std::size_t{1} << kMinClassBits)
                        ? (std::size_t{1} << kMinClassBits)
                        : capacity);
  return static_cast<std::size_t>(std::bit_width(rounded) - 1) - kMinClassBits;
}

std::vector<std::byte> BufferPool::acquire(std::size_t min_capacity) {
  {
    const std::scoped_lock lock(mu_);
    ++stats_.acquires;
    const bool poolable =
        enabled_ && min_capacity <= (std::size_t{1} << kMaxClassBits);
    if (poolable) {
      auto& bin = free_[class_of(min_capacity)];
      if (!bin.empty()) {
        ++stats_.hits;
        std::vector<std::byte> buf = std::move(bin.back());
        bin.pop_back();
        return buf;
      }
    }
    ++stats_.misses;
    if (!poolable) {
      std::vector<std::byte> buf;
      buf.reserve(min_capacity);
      return buf;
    }
  }
  // Miss: allocate a full size class outside the lock so the next release
  // of this buffer files it back into the same bin.
  std::vector<std::byte> buf;
  buf.reserve(std::size_t{1} << (class_of(min_capacity) + kMinClassBits));
  return buf;
}

void BufferPool::release(std::vector<std::byte> buf) {
  if (buf.capacity() == 0) return;
  const std::scoped_lock lock(mu_);
  ++stats_.releases;
  if (!enabled_ || buf.capacity() < (std::size_t{1} << kMinClassBits) ||
      buf.capacity() > (std::size_t{1} << kMaxClassBits)) {
    ++stats_.dropped;
    return;  // buf frees on scope exit
  }
  // File under the largest class the capacity fully covers, so an acquire
  // from that class always gets capacity >= the class size.
  const std::size_t cls =
      static_cast<std::size_t>(std::bit_width(buf.capacity()) - 1) -
      kMinClassBits;
  auto& bin = free_[cls];
  if (bin.size() >= kMaxPerClass) {
    ++stats_.dropped;
    return;
  }
  buf.clear();
  bin.push_back(std::move(buf));
}

void BufferPool::grow(std::vector<std::byte>& buf, std::size_t min_capacity) {
  if (buf.capacity() >= min_capacity) return;
  // Geometric growth keeps amortized appends O(1) even when callers grow
  // one put() at a time.
  std::size_t want = buf.capacity() * 2;
  if (want < min_capacity) want = min_capacity;
  std::vector<std::byte> bigger = acquire(want);
  bigger.resize(buf.size());
  if (!buf.empty()) std::memcpy(bigger.data(), buf.data(), buf.size());
  std::swap(buf, bigger);
  release(std::move(bigger));
}

BufferPool::Stats BufferPool::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

void BufferPool::reset_stats() {
  const std::scoped_lock lock(mu_);
  stats_ = Stats{};
}

void BufferPool::trim() {
  const std::scoped_lock lock(mu_);
  for (auto& bin : free_) bin.clear();
}

std::size_t BufferPool::cached_buffers() const {
  const std::scoped_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& bin : free_) n += bin.size();
  return n;
}

void BufferPool::set_enabled(bool on) {
  {
    const std::scoped_lock lock(mu_);
    enabled_ = on;
  }
  if (!on) trim();
}

bool BufferPool::enabled() const {
  const std::scoped_lock lock(mu_);
  return enabled_;
}

}  // namespace psanim::mp
