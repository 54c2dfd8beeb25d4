#include "psys/store.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace psanim::psys {

namespace {
/// Every position component finite — a NaN/inf anywhere makes edge tests
/// and the boundary-slice sort (a strict weak ordering) meaningless.
bool finite_pos(const Particle& p) {
  return std::isfinite(p.pos.x) && std::isfinite(p.pos.y) &&
         std::isfinite(p.pos.z);
}

/// Floats as unsigned integers in the same order (−0 just below +0), so
/// a bisection over floats is a bisection over integers.
std::uint32_t ordered(float f) {
  const auto u = std::bit_cast<std::uint32_t>(f);
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

float from_ordered(std::uint32_t u) {
  return std::bit_cast<float>((u & 0x80000000u) ? (u & 0x7fffffffu) : ~u);
}
}  // namespace

SlicedStore::SlicedStore(int axis, float lo, float hi, std::size_t slices)
    : axis_(axis), lo_(lo), hi_(hi), slices_(slices == 0 ? 1 : slices) {
  if (axis < 0 || axis > 2) {
    throw std::invalid_argument("SlicedStore: axis must be 0, 1 or 2");
  }
  if (!(lo <= hi)) {
    throw std::invalid_argument("SlicedStore: lo must be <= hi");
  }
  derive_cuts();
}

std::size_t SlicedStore::size() const {
  std::size_t n = 0;
  for (const auto& s : slices_) n += s.size();
  return n;
}

std::size_t SlicedStore::slice_of(float k) const {
  const float width = hi_ - lo_;
  if (width <= 0.0f) return 0;
  const auto m = static_cast<float>(slices_.size());
  auto i = static_cast<std::ptrdiff_t>((k - lo_) / width * m);
  i = std::clamp<std::ptrdiff_t>(i, 0,
                                 static_cast<std::ptrdiff_t>(slices_.size()) - 1);
  return static_cast<std::size_t>(i);
}

void SlicedStore::derive_cuts() {
  // c_i is the first float of [lo, hi) that slice_of files at or above
  // slice i (hi when there is none). slice_of is monotone in k, so bisect
  // over the ordered encoding with slice_of itself as the oracle: the
  // table is exact by construction, whatever the division rounds to.
  const std::size_t m = slices_.size();
  cuts_.assign(m + 1, hi_);
  cuts_[0] = lo_;
  const std::uint32_t end = ordered(hi_);
  for (std::size_t i = 1; i < m; ++i) {
    const auto at_or_above = [&](std::uint32_t u) {
      return u == end || slice_of(from_ordered(u)) >= i;
    };
    std::uint32_t below = ordered(cuts_[i - 1]);
    if (at_or_above(below)) {
      cuts_[i] = cuts_[i - 1];
      continue;
    }
    // Invariant: !at_or_above(below) && at_or_above(above).
    std::uint32_t above = end;
    while (above - below > 1) {
      const std::uint32_t mid = below + (above - below) / 2;
      (at_or_above(mid) ? above : below) = mid;
    }
    cuts_[i] = from_ordered(above);
  }
}

void SlicedStore::insert(const Particle& p) {
  if (!finite_pos(p)) {
    ++nonfinite_dropped_;
    return;
  }
  slices_[slice_of(key(p))].push_back(p);
}

void SlicedStore::insert_batch(std::span<const Particle> ps) {
  for (const auto& p : ps) insert(p);
}

void SlicedStore::reset_bounds(float lo, float hi) {
  if (!(lo <= hi)) {
    throw std::invalid_argument("SlicedStore::reset_bounds: lo must be <= hi");
  }
  lo_ = lo;
  hi_ = hi;
  derive_cuts();
  // Restage in place, in the slices' capacity, to the layout a re-insert
  // of every particle in the old order would give. Slice by slice, a
  // particle stays put when its new slice has its old index, joins an
  // already restaged lower slice, or waits in `up` for its higher slice,
  // which takes its waiting particles ahead of its own (they came first
  // in the old order).
  Movers& up = mover_staging();
  up.clear();
  std::vector<Particle> arriving;
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    auto& s = slices_[i];
    const float a = cuts_[i];
    const float b = cuts_[i + 1];
    std::size_t keep = 0;
    const std::size_t n = s.size();
    for (std::size_t r = 0; r < n; ++r) {
      const Particle& p = s[r];
      if (!finite_pos(p)) {
        ++nonfinite_dropped_;
        continue;
      }
      const float k = key(p);
      const std::size_t j = k >= a && k < b ? i : slice_of(k);
      if (j == i) {
        if (keep != r) s[keep] = p;
        ++keep;
      } else if (j < i) {
        slices_[j].push_back(p);
      } else {
        up.emplace_back(j, p);
      }
    }
    s.resize(keep);
    arriving.clear();
    auto rest = up.begin();
    for (auto& entry : up) {
      if (entry.first == i) {
        arriving.push_back(entry.second);
      } else {
        *rest++ = entry;
      }
    }
    up.erase(rest, up.end());
    s.insert(s.begin(), arriving.begin(), arriving.end());
  }
}

SlicedStore::Movers& SlicedStore::mover_staging() {
  // One buffer per thread (neither sweep nor reset_bounds yields), so its
  // capacity follows the largest single visit rather than the number of
  // stores in the process: a buffer per store raised fountain_is_dlb's
  // peak RSS by about 10 MB.
  thread_local Movers movers;
  return movers;
}

std::size_t SlicedStore::filter_slice(std::size_t i,
                                      std::vector<Particle>& crossers,
                                      Movers& movers) {
  auto& s = slices_[i];
  const float a = cuts_[i];
  const float b = cuts_[i + 1];
  std::size_t dead = 0;
  std::size_t keep = 0;
  const std::size_t n = s.size();
  for (std::size_t r = 0; r < n; ++r) {
    const Particle& p = s[r];
    if (p.dead()) {
      ++dead;
      continue;
    }
    if (!finite_pos(p)) {
      // An action blew this particle up (NaN/inf position) — it can't be
      // routed or kept without corrupting the layout, so drop it here,
      // the same choice insert() makes.
      ++nonfinite_dropped_;
      continue;
    }
    const float k = key(p);
    if (k >= a && k < b) {  // still in slice i (see cuts())
      if (keep != r) s[keep] = p;
      ++keep;
      continue;
    }
    if (k < lo_ || k >= hi_) {
      crossers.push_back(p);
      continue;
    }
    movers.emplace_back(slice_of(k), p);
  }
  s.resize(keep);
  return dead;
}

Donation SlicedStore::donate_low(std::size_t count) {
  return donate(count, /*low=*/true);
}

Donation SlicedStore::donate_high(std::size_t count) {
  return donate(count, /*low=*/false);
}

Donation SlicedStore::donate(std::size_t count, bool low) {
  Donation d;
  d.new_edge = low ? lo_ : hi_;
  if (count == 0 || size() == 0) return d;

  const std::size_t total = size();
  std::size_t needed = std::min(count, total);
  d.particles.reserve(needed);

  float extreme_donated = low ? -1e30f : 1e30f;  // max donated / min donated
  auto note_donated = [&](const Particle& p) {
    const float k = key(p);
    extreme_donated = low ? std::max(extreme_donated, k)
                          : std::min(extreme_donated, k);
    d.particles.push_back(p);
  };

  // Visit slices from the donating edge inward.
  const auto m = static_cast<std::ptrdiff_t>(slices_.size());
  for (std::ptrdiff_t step = 0; step < m && needed > 0; ++step) {
    auto& s = slices_[static_cast<std::size_t>(low ? step : m - 1 - step)];
    if (s.empty()) continue;
    if (s.size() <= needed) {
      // Whole sub-slice donated — no sorting required (§4).
      for (const auto& p : s) note_donated(p);
      needed -= s.size();
      s.clear();
      continue;
    }
    // Boundary sub-slice: order by key, take from the donating end.
    std::sort(s.begin(), s.end(), [this](const Particle& a, const Particle& b) {
      return key(a) < key(b);
    });
    d.sorted_elements += s.size();
    if (low) {
      for (std::size_t i = 0; i < needed; ++i) note_donated(s[i]);
      s.erase(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(needed));
    } else {
      const std::size_t start = s.size() - needed;
      for (std::size_t i = start; i < s.size(); ++i) note_donated(s[i]);
      s.resize(start);
    }
    needed = 0;
  }

  // New edge between donated and kept particles. Slices are ordered along
  // the axis, so the first non-empty slice from the donating edge holds
  // the kept extreme.
  if (size() == 0) {
    d.new_edge = low ? hi_ : lo_;
    return d;
  }
  float extreme_kept = low ? 1e30f : -1e30f;
  for (std::ptrdiff_t step = 0; step < m; ++step) {
    const auto& s = slices_[static_cast<std::size_t>(low ? step : m - 1 - step)];
    if (s.empty()) continue;
    for (const auto& p : s) {
      const float k = key(p);
      extreme_kept = low ? std::min(extreme_kept, k) : std::max(extreme_kept, k);
    }
    break;
  }
  // With duplicate keys at the split the two sets cannot be separated
  // exactly; keep the KEPT side's ownership invariant (kept keys stay in
  // the donor's interval) and let tied donated particles bounce back on
  // the next exchange — a one-frame, self-correcting cost.
  if (low) {
    d.new_edge = extreme_donated < extreme_kept
                     ? 0.5f * (extreme_donated + extreme_kept)
                     : extreme_kept;
  } else {
    d.new_edge = extreme_kept < extreme_donated
                     ? 0.5f * (extreme_kept + extreme_donated)
                     : std::nextafter(extreme_kept, 1e30f);
  }
  return d;
}

void SlicedStore::adopt_slices(float lo, float hi,
                               std::vector<std::vector<Particle>> slices) {
  if (!(lo <= hi)) {
    throw std::invalid_argument(
        "SlicedStore::adopt_slices: lo must be <= hi");
  }
  if (slices.empty()) {
    throw std::invalid_argument(
        "SlicedStore::adopt_slices: need at least one slice");
  }
  lo_ = lo;
  hi_ = hi;
  slices_ = std::move(slices);
  derive_cuts();
}

std::vector<Particle> SlicedStore::snapshot() const {
  std::vector<Particle> out;
  out.reserve(size());
  for (const auto& s : slices_) out.insert(out.end(), s.begin(), s.end());
  return out;
}

std::vector<Particle> SlicedStore::take_all() {
  std::vector<Particle> out;
  out.reserve(size());
  for (auto& s : slices_) {
    out.insert(out.end(), s.begin(), s.end());
    s.clear();
  }
  return out;
}

}  // namespace psanim::psys
