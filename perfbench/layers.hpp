#pragma once

// Outside-in host-time attribution for the benchmark's traced pass.
//
// Nothing here reaches into psanim's sources: every layer is timed at a
// public boundary from the benchmark side.
//   * psys: TimedAction wraps each non-create action by reference and
//     TimedDomain wraps each Source's position/velocity domains, so a
//     traced copy of a scene runs the very same action objects with a
//     timer around each call (instrument()).
//   * core/render/psys-store: probe_rates() times the frame-vertex codec,
//     the exchange codec, SlicedStore::snapshot and the splat rasterizer on
//     a pass's own final particles; the caller multiplies each per-particle
//     rate by the run's exact counts to estimate busy time.
//
// The decorators forward name(), cls(), cost_weight() and consume the same
// RNG draws, so a traced run must stay bit-identical to an untraced one —
// the benchmark checks that on every run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/frame_loop.hpp"
#include "psys/particle.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host time and work counted at one layer boundary. Calculator fibers on
/// several worker threads call through the same decorator, hence atomics.
struct Tally {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> items{0};

  void add(Clock::duration d, std::uint64_t n) {
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                         .count()),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
    items.fetch_add(n, std::memory_order_relaxed);
  }
  /// Busy seconds with the timer's own cost per call taken out.
  double seconds(double span_overhead_ns) const;
};

/// One tally per psys action kind the paper scenes use, one for the rest,
/// and one for the source domains (creation sampling).
struct PsysTallies {
  Tally random_accel, bounce, gravity, damping, kill_old, move, other;
  Tally position_domain;  ///< one generate() per created particle
  Tally velocity_domain;

  Tally& for_action(const char* name);
};

/// A traced copy of `scene` whose actions are `scene`'s own, wrapped.
/// `scene` and `tallies` must outlive the returned scene and every run of
/// it. Source actions are rebuilt from their Params with TimedDomain
/// wrappers (the manager finds sources by type, so they cannot be wrapped).
psanim::core::Scene instrument(const psanim::core::Scene& scene,
                               PsysTallies& tallies);

/// Cost of one empty timed span (two clock reads), median of many — taken
/// out of every decorator's busy time.
double measure_span_overhead_ns();

/// Median per-particle host cost of each probed layer over `reps` runs.
/// All zero when `particles` is empty.
struct ProbeRates {
  double frame_vertex_ns = 0.0;    ///< to_render_vertex + encode + decode
  double exchange_codec_ns = 0.0;  ///< encode_batches + decode_batches
  double snapshot_ns = 0.0;        ///< SlicedStore::snapshot
  double splat_ns = 0.0;           ///< render::splat_points
};
ProbeRates probe_rates(
    const std::vector<std::vector<psanim::psys::Particle>>& particles,
    const psanim::core::Scene& scene,
    const psanim::core::SimSettings& settings, int reps);

}  // namespace perfbench
