#pragma once

// Checkpoint policy: when snapshots are taken and how calculator crashes
// are recovered.
//
// All of the policy's answers are pure functions of (policy, frame), for
// the same reason PR 1's crash membership is a pure function of
// (plan, frame): every role must reach the identical recovery decision at
// the identical frame boundary without extra protocol rounds. A crash at
// frame f is "restart-eligible" iff the policy's recovery mode is restart
// AND a snapshot frame exists strictly before f; then every role rolls
// back to that snapshot and replays, the crashed calculator respawning
// from its own vault image. Otherwise the PR-1 domain-merge degradation
// applies.

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault_plan.hpp"

namespace psanim::ckpt {

/// What happens when a calculator crash is detected.
enum class RecoveryMode : std::uint8_t {
  /// Always merge the dead domain into a survivor (PR-1 behavior).
  kMergeOnly = 0,
  /// Roll every role back to the latest snapshot before the crash frame,
  /// respawn the dead calculator from its vault image and replay; falls
  /// back to merge when no snapshot precedes the crash.
  kRestart = 1,
};

struct CkptPolicy {
  /// Snapshot after every `interval`-th frame (i.e. after frames
  /// interval-1, 2*interval-1, ...). 0 disables checkpointing; negative
  /// values are rejected by SimSettings::validate().
  std::int32_t interval = 0;
  RecoveryMode recovery = RecoveryMode::kRestart;

  bool enabled() const { return interval > 0; }

  /// Capture a snapshot after frame `frame` completes?
  bool due_after(std::uint32_t frame) const {
    return enabled() &&
           (frame + 1) % static_cast<std::uint32_t>(interval) == 0;
  }

  /// Latest snapshot frame strictly before `frame`, if any.
  std::optional<std::uint32_t> latest_snapshot_before(
      std::uint32_t frame) const {
    if (!enabled()) return std::nullopt;
    const auto iv = static_cast<std::uint32_t>(interval);
    const std::uint32_t k = frame / iv * iv;
    if (k == 0) return std::nullopt;
    return k - 1;
  }

  /// Is a crash at `crash_frame` recovered by restart-from-checkpoint
  /// (vs. domain merge)?
  bool restarts(std::uint32_t crash_frame) const {
    return recovery == RecoveryMode::kRestart &&
           latest_snapshot_before(crash_frame).has_value();
  }

  /// Ascending snapshot frames usable as suspend points for an animation
  /// of `frames` frames: every f with due_after(f) and f + 1 < frames
  /// (the final frame's snapshot leaves nothing to resume), restricted to
  /// f > after when `after` is set (a run resumed from `after` can only
  /// suspend at a later snapshot). The farm walks this list to pick the
  /// earliest vacate point not yet passed by a job being preempted.
  std::vector<std::uint32_t> snapshot_frames(
      std::uint32_t frames,
      std::optional<std::uint32_t> after = std::nullopt) const;

  /// The earliest usable suspend frame >= `frame` (same restrictions as
  /// snapshot_frames), or nullopt when none remains — the farm's victim
  /// costing query: how far a running job at `frame` must drain before it
  /// can vacate. O(1), no list materialized.
  std::optional<std::uint32_t> next_snapshot_at_or_after(
      std::uint32_t frame, std::uint32_t frames,
      std::optional<std::uint32_t> after = std::nullopt) const;
};

/// Recovery-aware membership: is `calc` permanently dead at the start of
/// `frame`? A restart-recovered calculator is never permanently dead — it
/// is respawned within the frame its crash is detected.
bool calc_dead_at(const fault::FaultPlan& plan, const CkptPolicy& policy,
                  int calc, std::uint32_t frame);

/// Ascending indices of calculators executing frame `frame` (the
/// recovery-aware refinement of FaultPlan::alive_calcs).
std::vector<int> alive_for_exec(const fault::FaultPlan& plan,
                                const CkptPolicy& policy,
                                std::uint32_t frame, int ncalc);

}  // namespace psanim::ckpt
