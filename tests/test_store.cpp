// Tests for the §4 sliced particle store: routing into sub-slices,
// crosser extraction, dead compaction and the donation invariants the
// load balancer depends on, and the sweep's cut table and filing against
// a division-based reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "math/rng.hpp"
#include "psys/store.hpp"

namespace psanim::psys {
namespace {

Particle at_x(float x) {
  Particle p;
  p.pos = {x, 0, 0};
  return p;
}

std::vector<Particle> random_particles(std::size_t n, float lo, float hi,
                                       std::uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Particle> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(at_x(rng.uniform(lo, hi)));
  return out;
}

std::vector<float> sorted_keys(const std::vector<Particle>& ps) {
  std::vector<float> keys;
  keys.reserve(ps.size());
  for (const auto& p : ps) keys.push_back(p.pos.x);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(SlicedStore, RejectsBadArguments) {
  EXPECT_THROW(SlicedStore(3, 0, 1), std::invalid_argument);
  EXPECT_THROW(SlicedStore(0, 2, 1), std::invalid_argument);
}

TEST(SlicedStore, InsertAndSize) {
  SlicedStore store(0, -10, 10, 4);
  EXPECT_TRUE(store.empty());
  store.insert(at_x(0));
  store.insert(at_x(-9));
  store.insert(at_x(9));
  EXPECT_EQ(store.size(), 3u);
}

TEST(SlicedStore, SnapshotAndTakeAll) {
  SlicedStore store(0, 0, 10, 4);
  store.insert_batch(random_particles(100, 0, 10));
  EXPECT_EQ(store.snapshot().size(), 100u);
  EXPECT_EQ(store.size(), 100u);  // snapshot does not consume
  const auto all = store.take_all();
  EXPECT_EQ(all.size(), 100u);
  EXPECT_TRUE(store.empty());
}

TEST(SlicedStore, ExtractOutsideReturnsOnlyCrossers) {
  SlicedStore store(0, 0, 10, 4);
  store.insert_batch(random_particles(100, 0, 10));
  // Push some particles outside by editing them in place.
  std::size_t moved = 0;
  std::vector<Particle> out;
  store.sweep(
      [&](std::span<Particle> ps) {
        for (auto& p : ps) {
          if (moved < 10) {
            p.pos.x = -1.0f - static_cast<float>(moved);
            ++moved;
          }
        }
      },
      out);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(store.size(), 90u);
  for (const auto& p : out) EXPECT_LT(p.pos.x, 0.0f);
  // Remaining particles are all in range.
  for (const auto& p : store.snapshot()) {
    EXPECT_GE(p.pos.x, 0.0f);
    EXPECT_LT(p.pos.x, 10.0f);
  }
}

TEST(SlicedStore, ExtractRefilesInternalMovers) {
  SlicedStore store(0, 0, 10, 10);
  store.insert(at_x(0.5f));  // slice 0
  // Move it to slice-9 territory.
  std::vector<Particle> out;
  store.sweep(
      [](std::span<Particle> ps) {
        for (auto& p : ps) p.pos.x = 9.5f;
      },
      out);
  EXPECT_TRUE(out.empty());
  // Donating from the high end must now find it without sorting stale
  // slices: the particle must be in the last slice.
  const auto d = store.donate_high(1);
  ASSERT_EQ(d.particles.size(), 1u);
  EXPECT_FLOAT_EQ(d.particles[0].pos.x, 9.5f);
}

TEST(SlicedStore, CompactDeadRemovesAndCounts) {
  SlicedStore store(0, 0, 10, 4);
  store.insert_batch(random_particles(50, 0, 10));
  std::size_t killed = 0;
  std::vector<Particle> out;
  const std::size_t removed = store.sweep(
      [&](std::span<Particle> ps) {
        for (auto& p : ps) {
          if (killed < 20) {
            p.kill();
            ++killed;
          }
        }
      },
      out);
  EXPECT_EQ(removed, 20u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(store.size(), 30u);
  for (const auto& p : store.snapshot()) EXPECT_FALSE(p.dead());
}

TEST(SlicedStore, ResetBoundsKeepsParticles) {
  SlicedStore store(0, 0, 10, 4);
  store.insert_batch(random_particles(64, 0, 10));
  store.reset_bounds(-5, 15);
  EXPECT_EQ(store.size(), 64u);
  EXPECT_FLOAT_EQ(store.lo(), -5);
  EXPECT_FLOAT_EQ(store.hi(), 15);
}

// --- donation invariants, swept over slice counts and donation sizes ---

class DonationTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DonationTest, DonateLowTakesLowestKeys) {
  const auto [slices, count] = GetParam();
  SlicedStore store(0, -10, 10, slices);
  const auto input = random_particles(500, -10, 10);
  store.insert_batch(input);

  const auto expected = sorted_keys(input);
  const Donation d = store.donate_low(count);

  ASSERT_EQ(d.particles.size(), std::min<std::size_t>(count, 500));
  // The donated multiset is exactly the `count` smallest keys.
  auto donated = sorted_keys(d.particles);
  for (std::size_t i = 0; i < donated.size(); ++i) {
    EXPECT_FLOAT_EQ(donated[i], expected[i]);
  }
  // Every donated key <= new edge <= every kept key.
  for (const float k : donated) EXPECT_LE(k, d.new_edge);
  for (const auto& p : store.snapshot()) {
    EXPECT_GE(p.pos.x, d.new_edge);
  }
  EXPECT_EQ(store.size() + d.particles.size(), 500u);
}

TEST_P(DonationTest, DonateHighTakesHighestKeys) {
  const auto [slices, count] = GetParam();
  SlicedStore store(0, -10, 10, slices);
  const auto input = random_particles(500, -10, 10, /*seed=*/77);
  store.insert_batch(input);

  const auto expected = sorted_keys(input);
  const Donation d = store.donate_high(count);

  ASSERT_EQ(d.particles.size(), std::min<std::size_t>(count, 500));
  auto donated = sorted_keys(d.particles);
  for (std::size_t i = 0; i < donated.size(); ++i) {
    EXPECT_FLOAT_EQ(donated[i], expected[500 - donated.size() + i]);
  }
  for (const float k : donated) EXPECT_GE(k, d.new_edge);
  for (const auto& p : store.snapshot()) {
    EXPECT_LE(p.pos.x, d.new_edge);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlicesAndCounts, DonationTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8, 32),
                       ::testing::Values<std::size_t>(1, 50, 250, 499, 600)));

TEST(Donation, MoreSlicesSortFewerElements) {
  const auto input = random_particles(4096, -10, 10);
  std::size_t sorted_flat = 0;
  std::size_t sorted_sliced = 0;
  {
    SlicedStore store(0, -10, 10, 1);
    store.insert_batch(input);
    sorted_flat = store.donate_low(100).sorted_elements;
  }
  {
    SlicedStore store(0, -10, 10, 32);
    store.insert_batch(input);
    sorted_sliced = store.donate_low(100).sorted_elements;
  }
  // The flat store sorts everything; the sliced one only a boundary slice.
  EXPECT_EQ(sorted_flat, 4096u);
  EXPECT_LT(sorted_sliced, 4096u / 8);
}

TEST(Donation, WholeSliceFastPathSkipsSortingAndConservesCount) {
  // 4 slices over [0, 4): 10 particles land in each slice. Taking whole
  // sub-slices must not sort anything; taking a partial boundary slice
  // sorts only that slice. Both branches conserve the particle count.
  auto build = [] {
    SlicedStore store(0, 0, 4, 4);
    for (int s = 0; s < 4; ++s) {
      for (int i = 0; i < 10; ++i) {
        store.insert(at_x(static_cast<float>(s) + 0.05f * (i + 1)));
      }
    }
    return store;
  };

  {
    SlicedStore store = build();
    const Donation d = store.donate_low(10);  // exactly slice 0
    EXPECT_EQ(d.particles.size(), 10u);
    EXPECT_EQ(d.sorted_elements, 0u);  // whole-sub-slice fast path
    EXPECT_EQ(store.size() + d.particles.size(), 40u);
    for (const auto& p : d.particles) EXPECT_LT(p.pos.x, 1.0f);
  }
  {
    SlicedStore store = build();
    const Donation d = store.donate_low(20);  // slices 0+1, still unsorted
    EXPECT_EQ(d.particles.size(), 20u);
    EXPECT_EQ(d.sorted_elements, 0u);
    EXPECT_EQ(store.size() + d.particles.size(), 40u);
  }
  {
    SlicedStore store = build();
    const Donation d = store.donate_low(15);  // slice 0 + half of slice 1
    EXPECT_EQ(d.particles.size(), 15u);
    EXPECT_EQ(d.sorted_elements, 10u);  // only the boundary slice sorted
    EXPECT_EQ(store.size() + d.particles.size(), 40u);
  }
  {
    SlicedStore store = build();
    const Donation d = store.donate_high(15);  // mirror image
    EXPECT_EQ(d.particles.size(), 15u);
    EXPECT_EQ(d.sorted_elements, 10u);
    EXPECT_EQ(store.size() + d.particles.size(), 40u);
  }
}

TEST(Donation, EmptyAndZeroCases) {
  SlicedStore store(0, 0, 10, 4);
  EXPECT_TRUE(store.donate_low(10).particles.empty());
  store.insert(at_x(5));
  EXPECT_TRUE(store.donate_low(0).particles.empty());
  EXPECT_EQ(store.size(), 1u);
}

TEST(Donation, DonatingEverythingCollapsesInterval) {
  SlicedStore store(0, 0, 10, 4);
  store.insert_batch(random_particles(20, 0, 10));
  const Donation d = store.donate_low(20);
  EXPECT_EQ(d.particles.size(), 20u);
  EXPECT_TRUE(store.empty());
  EXPECT_FLOAT_EQ(d.new_edge, 10.0f);  // donor keeps an empty interval
}

TEST(Donation, DuplicateKeysStillSeparable) {
  SlicedStore store(0, 0, 10, 4);
  for (int i = 0; i < 10; ++i) store.insert(at_x(5.0f));
  const Donation d = store.donate_low(4);
  EXPECT_EQ(d.particles.size(), 4u);
  // All keys equal: the edge must sit at or just above the key so kept
  // particles remain in [edge, hi).
  for (const auto& p : store.snapshot()) EXPECT_GE(p.pos.x, d.new_edge);
}

TEST(SlicedStore, DropsNonFiniteOnInsert) {
  SlicedStore store(0, 0, 10, 4);
  Particle nan_x = at_x(5);
  nan_x.pos.x = std::numeric_limits<float>::quiet_NaN();
  Particle inf_y = at_x(5);
  inf_y.pos.y = std::numeric_limits<float>::infinity();
  store.insert(nan_x);
  store.insert(inf_y);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.nonfinite_dropped(), 2u);
  store.insert(at_x(5));  // finite particles still land
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.nonfinite_dropped(), 2u);
}

TEST(SlicedStore, InsertBatchDropsOnlyNonFinite) {
  SlicedStore store(0, 0, 10, 4);
  std::vector<Particle> batch = {at_x(1), at_x(2), at_x(3)};
  batch[1].pos.z = std::numeric_limits<float>::quiet_NaN();
  store.insert_batch(batch);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.nonfinite_dropped(), 1u);
}

TEST(SlicedStore, ExtractDropsParticlesThatWentNonFinite) {
  // A particle whose position turns NaN during an action pass must not
  // survive the crossing scan: NaN compares false against both edges, so
  // the old code kept it forever, corrupting exchange conservation.
  SlicedStore store(0, 0, 10, 4);
  store.insert_batch(std::vector<Particle>{at_x(1), at_x(5), at_x(9)});
  std::vector<Particle> crossers;
  store.sweep(
      [](std::span<Particle> ps) {
        for (auto& p : ps) {
          if (p.pos.x == 5.0f) {
            p.pos.x = std::numeric_limits<float>::quiet_NaN();
          }
        }
      },
      crossers);
  EXPECT_TRUE(crossers.empty());  // the NaN is dropped, not shipped
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.nonfinite_dropped(), 1u);
  for (const auto& p : store.snapshot()) {
    EXPECT_TRUE(std::isfinite(p.pos.x));
  }
}

TEST(SlicedStore, KeyUsesConfiguredAxis) {
  SlicedStore store(2, -10, 10, 4);  // z axis
  Particle p;
  p.pos = {100, 100, 3.5f};
  EXPECT_FLOAT_EQ(store.key(p), 3.5f);
}

TEST(SlicedStore, ZeroWidthIntervalIsUsable) {
  // A fully-starved domain after aggressive balancing.
  SlicedStore store(0, 5, 5, 8);
  store.insert(at_x(5));
  EXPECT_EQ(store.size(), 1u);
  // The particle's key is not < lo and not >= hi... edge case: [5,5) is
  // empty, so the sweep must evict it.
  std::vector<Particle> out;
  store.sweep([](std::span<Particle>) {}, out);
  EXPECT_EQ(out.size(), 1u);
}

// --- the sweep's cut table and filing, against the division they replace ---

/// Every (lo, hi) the cut tests cover: negative and mixed ranges, a zero
/// width, the ±kHuge infinite-space extents and narrow bands far from 0.
const std::vector<std::pair<float, float>> kRanges = {
    {-10.0f, 10.0f},    {0.0f, 1.0f},        {-7.3f, -2.1f},
    {5.0f, 5.0f},       {-0.0f, 0.0f},       {-1e6f, 1e6f},
    {-1e6f, -999999.0f}, {999999.0f, 1e6f},  {0.1f, 0.1000001f},
    {-3.0f, 1e6f},      {-1e6f, 0.0f}};
const std::size_t kSliceCounts[] = {1, 2, 8, 32};

TEST(SlicedStoreCuts, EachCutIsTheFirstKeyOfItsSlice) {
  std::size_t checked = 0;
  for (const auto& [lo, hi] : kRanges) {
    for (const std::size_t m : kSliceCounts) {
      SCOPED_TRACE(::testing::Message() << "lo " << lo << " hi " << hi
                                        << " m " << m);
      const SlicedStore store(0, lo, hi, m);
      const auto c = store.cuts();
      ASSERT_EQ(c.size(), m + 1);
      EXPECT_EQ(c.front(), lo);
      EXPECT_EQ(c.back(), hi);
      for (std::size_t i = 1; i <= m; ++i) EXPECT_LE(c[i - 1], c[i]);
      for (std::size_t i = 1; i < m; ++i) {
        if (c[i] < c[i + 1]) {  // slice i holds at least c[i]
          EXPECT_EQ(store.slice_of(c[i]), i) << "cut " << i;
          ++checked;
        }
        if (c[i - 1] < c[i]) {  // the float below c[i] is in slice i - 1
          EXPECT_EQ(store.slice_of(std::nextafter(
                        c[i], -std::numeric_limits<float>::infinity())),
                    i - 1)
              << "cut " << i;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 300u);  // the ranges with width leave no slice empty
}

TEST(SlicedStoreCuts, ZeroWidthCollapsesEveryCut) {
  const SlicedStore store(0, 5.0f, 5.0f, 8);
  for (const float c : store.cuts()) EXPECT_EQ(c, 5.0f);
}

TEST(SlicedStoreCuts, RederivedOnResetAndAdopt) {
  SlicedStore store(0, 0, 10, 8);
  const auto expect_cuts_of = [&](float lo, float hi) {
    const SlicedStore fresh(0, lo, hi, 8);
    ASSERT_TRUE(std::equal(store.cuts().begin(), store.cuts().end(),
                           fresh.cuts().begin(), fresh.cuts().end()));
  };
  store.reset_bounds(-3.5f, 7.25f);
  expect_cuts_of(-3.5f, 7.25f);
  store.adopt_slices(-1e6f, 4.0f, std::vector<std::vector<Particle>>(8));
  expect_cuts_of(-1e6f, 4.0f);
}

/// The store's contract restated the way it was first written: a division
/// per particle (slice_of's formula), then the three passes the sweep
/// fuses — apply, compact the dead, extract crossers and re-file movers.
struct ReferenceStore {
  float lo, hi;
  std::vector<std::vector<Particle>> slices;
  std::uint64_t nonfinite = 0;

  std::size_t slice_of(float k) const {
    const float width = hi - lo;
    if (width <= 0.0f) return 0;
    const auto m = static_cast<float>(slices.size());
    auto i = static_cast<std::ptrdiff_t>((k - lo) / width * m);
    i = std::clamp<std::ptrdiff_t>(
        i, 0, static_cast<std::ptrdiff_t>(slices.size()) - 1);
    return static_cast<std::size_t>(i);
  }

  template <typename Fn>
  std::size_t sweep(int axis, Fn&& fn, std::vector<Particle>& crossers) {
    for (auto& s : slices) {
      if (!s.empty()) fn(std::span<Particle>(s));
    }
    std::size_t dead = 0;
    for (auto& s : slices) {
      const auto it = std::remove_if(
          s.begin(), s.end(), [](const Particle& p) { return p.dead(); });
      dead += static_cast<std::size_t>(s.end() - it);
      s.erase(it, s.end());
    }
    crossers.clear();
    std::vector<std::pair<std::size_t, Particle>> moved;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      auto& s = slices[i];
      std::size_t keep = 0;
      for (std::size_t r = 0; r < s.size(); ++r) {
        const Vec3 pos = s[r].pos;
        if (!std::isfinite(pos.x) || !std::isfinite(pos.y) ||
            !std::isfinite(pos.z)) {
          ++nonfinite;
          continue;
        }
        const float k = pos.axis(axis);
        if (k < lo || k >= hi) {
          crossers.push_back(s[r]);
        } else if (const std::size_t j = slice_of(k); j != i) {
          moved.emplace_back(j, s[r]);
        } else {
          s[keep++] = s[r];
        }
      }
      s.resize(keep);
    }
    for (const auto& [j, p] : moved) slices[j].push_back(p);
    return dead;
  }

  void reset_bounds(int axis, float new_lo, float new_hi) {
    std::vector<Particle> all;
    for (auto& s : slices) {
      all.insert(all.end(), s.begin(), s.end());
      s.clear();
    }
    lo = new_lo;
    hi = new_hi;
    for (const auto& p : all) slices[slice_of(p.pos.axis(axis))].push_back(p);
  }
};

bool same_bytes(const std::vector<Particle>& a,
                const std::vector<Particle>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Particle)) == 0);
}

class SweepReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepReference, LayoutCrossersAndCountsMatch) {
  Rng rng(GetParam());
  const auto& [lo, hi] = kRanges[rng.next_below(kRanges.size())];
  const std::size_t m = kSliceCounts[rng.next_below(std::size(kSliceCounts))];
  const int axis = static_cast<int>(rng.next_below(3));
  SCOPED_TRACE(::testing::Message() << "lo " << lo << " hi " << hi << " m "
                                    << m << " axis " << axis);
  SlicedStore store(axis, lo, hi, m);
  const float span = std::max(hi - lo, 1.0f);
  for (std::size_t i = 0; i < 600; ++i) {
    Particle p;
    p.pos = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    // Mostly inside [lo, hi), some exactly on the cuts and edges.
    p.pos.axis_ref(axis) = i % 10 == 0
                               ? store.cuts()[rng.next_below(m + 1)]
                               : lo + rng.next_float() * (hi - lo);
    p.color = {rng.next_float(), rng.next_float(), rng.next_float()};
    store.insert(p);
  }
  ReferenceStore ref{store.lo(), store.hi(), store.raw_slices(),
                     store.nonfinite_dropped()};

  // Per particle, in visit order: kill (some also blown up), blow up, step
  // past a cut, leave the domain (both sides), land exactly on a cut, or
  // stay.
  const auto make_fn = [&](Rng fn_rng, const std::vector<float>& cuts) {
    return [fn_rng, cuts, axis, lo = lo, hi = hi, span,
            m](std::span<Particle> ps) mutable {
      for (auto& p : ps) {
        const float u = fn_rng.next_float();
        float& k = p.pos.axis_ref(axis);
        if (u < 0.08f) {
          p.kill();
          // Dead and blown up at once counts as dead, not non-finite.
          if (u < 0.02f) k = std::numeric_limits<float>::infinity();
        } else if (u < 0.10f) {
          k = std::numeric_limits<float>::quiet_NaN();
        } else if (u < 0.11f) {
          p.pos.axis_ref((axis + 1) % 3) =
              -std::numeric_limits<float>::infinity();
        } else if (u < 0.17f) {
          k = lo - fn_rng.next_float() * span;
        } else if (u < 0.23f) {
          k = hi + fn_rng.next_float() * span;
        } else if (u < 0.28f) {
          k = cuts[fn_rng.next_below(m + 1)];
        } else if (u < 0.55f) {
          k = std::clamp(k + fn_rng.uniform(-0.3f, 0.3f) * span, lo, hi);
        }
      }
    };
  };

  std::vector<Particle> got_crossers;
  std::vector<Particle> want_crossers;
  const std::vector<float> cuts(store.cuts().begin(), store.cuts().end());
  for (int round = 0; round < 4; ++round) {
    const Rng fn_rng(GetParam() * 31 + static_cast<std::uint64_t>(round));
    const std::size_t got_dead =
        store.sweep(make_fn(fn_rng, cuts), got_crossers);
    const std::size_t want_dead =
        ref.sweep(axis, make_fn(fn_rng, cuts), want_crossers);
    EXPECT_EQ(got_dead, want_dead) << "round " << round;
    EXPECT_EQ(store.nonfinite_dropped(), ref.nonfinite) << "round " << round;
    EXPECT_TRUE(same_bytes(got_crossers, want_crossers)) << "round " << round;
    ASSERT_EQ(store.raw_slices().size(), ref.slices.size());
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(same_bytes(store.raw_slices()[i], ref.slices[i]))
          << "round " << round << " slice " << i;
    }
    // The crossers come home so the next round has them to file again.
    store.insert_batch(got_crossers);
    for (const auto& p : want_crossers) {
      ref.slices[ref.slice_of(p.pos.axis(axis))].push_back(p);
    }
  }

  // Restaging after a boundary move keeps every particle in order: widen,
  // shift (particles change slice both ways) and narrow (some fall
  // outside and clamp into the edge slices).
  const std::pair<float, float> moves[] = {
      {lo - 0.25f * span, hi + 0.125f * span},
      {lo + 0.3f * span, hi + 0.3f * span},
      {lo + 0.2f * span, lo + 0.6f * span}};
  for (const auto& [new_lo, new_hi] : moves) {
    store.reset_bounds(new_lo, new_hi);
    ref.reset_bounds(axis, new_lo, new_hi);
    EXPECT_EQ(store.nonfinite_dropped(), ref.nonfinite);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(same_bytes(store.raw_slices()[i], ref.slices[i]))
          << "after reset to [" << new_lo << ", " << new_hi << "), slice "
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepReference,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace psanim::psys
