#pragma once

// Sliced particle storage — the §4 storage optimization.
//
// The paper's rewrite replaces "one vector per domain" with "the domain
// broken into sub-domains, one vector each", for two reasons it states
// explicitly: discovering which particles must be shipped to other
// processes no longer requires comparing every particle against the domain
// edges, and load-balancing donations only need to sort the boundary
// sub-vector instead of the whole domain.
//
// SlicedStore holds one calculator's particles of ONE system, partitioned
// into `m` equal sub-slices of the owned interval [lo, hi) along the
// decomposition axis.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "psys/particle.hpp"

namespace psanim::psys {

/// Result of a donation: the particles removed, the new domain edge
/// between donor and receiver, and how many elements had to be sorted
/// (charged to the virtual clock by the caller).
struct Donation {
  std::vector<Particle> particles;
  float new_edge = 0.0f;
  std::size_t sorted_elements = 0;
};

class SlicedStore {
 public:
  /// `axis`: 0/1/2 for x/y/z; `slices`: number of sub-domain vectors.
  SlicedStore(int axis, float lo, float hi, std::size_t slices = 8);

  int axis() const { return axis_; }
  float lo() const { return lo_; }
  float hi() const { return hi_; }
  std::size_t slice_count() const { return slices_.size(); }
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Particle's coordinate along the decomposition axis.
  float key(const Particle& p) const { return p.pos.axis(axis_); }

  /// Insert one particle (must have key in [lo, hi); out-of-range keys
  /// clamp into the edge slices — the caller routes true crossers away
  /// before inserting). A particle with a non-finite position is DROPPED
  /// and counted in nonfinite_dropped(): a NaN key compares false against
  /// every edge, so it would otherwise land in an arbitrary slice, evade
  /// crossing discovery and corrupt exchange conservation.
  void insert(const Particle& p);
  void insert_batch(std::span<const Particle> ps);

  /// Particles dropped because their position went non-finite (NaN/inf),
  /// at insert or extract. Monotone over the store's lifetime.
  std::uint64_t nonfinite_dropped() const { return nonfinite_dropped_; }

  /// Change the owned interval (after a load-balance boundary move or an
  /// initial decomposition) and redistribute current particles into the
  /// new uniform sub-slices, in their current order. Particles now
  /// outside [lo, hi) stay, clamped to edge slices; sweep first.
  void reset_bounds(float lo, float hi);

  /// The frame's one visit to every particle (§4). For each non-empty
  /// sub-slice in order: apply `fn` to it, then, in the same pass over it,
  /// drop dead particles (counted in the return value) and particles whose
  /// position went non-finite (counted in nonfinite_dropped()), move the
  /// particles whose key left [lo, hi) to `crossers` (cleared first) and
  /// take out those that crossed an internal cut. Those movers are
  /// re-filed after the whole visit, in scan order, so no particle is
  /// visited twice and `fn` sees each slice as it was.
  template <typename Fn>
  std::size_t sweep(Fn&& fn, std::vector<Particle>& crossers) {
    crossers.clear();
    Movers& movers = mover_staging();
    movers.clear();
    std::size_t dead = 0;
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      if (slices_[i].empty()) continue;
      fn(std::span<Particle>(slices_[i]));
      dead += filter_slice(i, crossers, movers);
    }
    for (const auto& [j, p] : movers) slices_[j].push_back(p);
    return dead;
  }

  /// The sub-slice `insert` files key `k` into: the uniform cut
  /// ⌊(k − lo) / (hi − lo) · m⌋, clamped to [0, m).
  std::size_t slice_of(float k) const;

  /// The m + 1 cuts c_0 = lo ≤ c_1 ≤ … ≤ c_m = hi. For a finite key k in
  /// [lo, hi), slice_of(k) == i exactly when c_i ≤ k < c_{i+1}, so the
  /// sweep tells a particle that stayed in its slice by two compares.
  std::span<const float> cuts() const { return cuts_; }

  /// Remove and return the `count` particles with the LOWEST keys (donate
  /// toward the left neighbor, §3.2.5: "the particles with lower x values
  /// are the ones to be donated"). Whole sub-slices are taken unsorted;
  /// only the final partial sub-slice is sorted.
  Donation donate_low(std::size_t count);
  /// Mirror image: highest keys, toward the right neighbor.
  Donation donate_high(std::size_t count);

  /// Gather a copy of every particle (rendering, tests).
  std::vector<Particle> snapshot() const;

  /// The internal per-slice layout (checkpoint serialization — replay is
  /// bit-exact only if the slice order, which drives RNG consumption
  /// order, survives the round trip).
  const std::vector<std::vector<Particle>>& raw_slices() const {
    return slices_;
  }
  /// Checkpoint restore: replace bounds and the whole slice layout
  /// verbatim. `slices` must be non-empty and lo <= hi.
  void adopt_slices(float lo, float hi,
                    std::vector<std::vector<Particle>> slices);

  /// Move all particles out, leaving the store empty.
  std::vector<Particle> take_all();

 private:
  Donation donate(std::size_t count, bool low);
  void derive_cuts();
  /// Particles that crossed an internal cut: (target slice, particle).
  using Movers = std::vector<std::pair<std::size_t, Particle>>;
  /// This thread's staging for movers, reused for its capacity.
  static Movers& mover_staging();
  std::size_t filter_slice(std::size_t i, std::vector<Particle>& crossers,
                           Movers& movers);

  int axis_;
  float lo_;
  float hi_;
  std::vector<std::vector<Particle>> slices_;
  std::vector<float> cuts_;
  std::uint64_t nonfinite_dropped_ = 0;
};

}  // namespace psanim::psys
