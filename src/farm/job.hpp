#pragma once

// psanim::farm job model: what a tenant submits (JobSpec), which slice of
// the shared cluster the scheduler granted it (Assignment), and what came
// back (JobResult).
//
// A job is one complete animation — scene + settings — that runs as its
// own mp runtime over a subset of the shared cluster's CPU slots. The
// assignment is self-contained: re-running `run_parallel` with the
// assignment's sub_spec/placement outside the farm reproduces the job's
// simulation bit-for-bit (the farm never perturbs a job's inputs, only
// stretches its *farm-level* completion time when neighbors contend).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/placement.hpp"
#include "core/simulation.hpp"
#include "core/wire.hpp"

namespace psanim::farm {

/// Queue disciplines. kFifo/kSjf are work-conserving with backfill: the
/// queue is scanned in policy order and every job that fits the free slots
/// starts, so capacity never idles while a runnable job waits.
/// kPriority/kFairShare are *preemptive* (when FarmOptions::preempt_interval
/// is positive): the head of the policy order reserves capacity strictly —
/// no backfill past a blocked head — and may evict running jobs by
/// checkpointing them into their vault (see the Farm header).
enum class Policy {
  kFifo,       ///< submission order (arrival time, then submission sequence)
  kSjf,        ///< shortest-virtual-job-first by estimated virtual cost
  kPriority,   ///< JobSpec::priority desc, then arrival; preempts lower
  kFairShare,  ///< least-served tenant first (per-tenant busy_rank_s)
};

std::string to_string(Policy p);

/// How the preemptive driver ranks eligible running jobs for eviction.
enum class VictimSelection {
  /// PR-9 behavior: lowest priority / most over-served tenant first, then
  /// the youngest segment (least sunk work re-queued).
  kLeastDeserving,
  /// Cheapest eviction first: the victim with the least work left to
  /// drain to its nearest upcoming checkpoint frame (farm-seconds lost to
  /// the drain), with deterministic (cost, deserve, seq) tie-breaks.
  kCostAware,
};

std::string to_string(VictimSelection v);

enum class JobState {
  kQueued,      ///< admitted, waiting for slots
  kRunning,     ///< occupying slots on the shared cluster
  kPreempting,  ///< marked for eviction; draining to its vacate checkpoint
  kSuspended,   ///< checkpointed out; waiting to be restored
  kDone,        ///< finished; JobResult::result is valid
  kFailed,      ///< run_parallel threw; JobResult::error holds the message
  kCancelled,   ///< cancelled while still queued
};

std::string to_string(JobState s);

/// One tenant's request: run `settings.frames` frames of `scene` with
/// `settings.ncalc` calculator ranks (plus manager and image generator).
struct JobSpec {
  std::string name;
  core::Scene scene;
  core::SimSettings settings;
  /// Virtual arrival time at the farm; jobs are invisible to the
  /// scheduler before this. When `after_seq` >= 0 this is instead a
  /// *think delay*: the job arrives that many virtual seconds after its
  /// predecessor reaches a terminal state (closed-loop arrivals).
  double submit_time_s = 0.0;
  /// SJF ranking key; <= 0 derives a default from frames x systems.
  double sjf_cost_hint = 0.0;
  /// Multi-tenancy: which tenant owns this job. kFairShare balances
  /// busy_rank_s across tenants; empty string is a tenant like any other.
  std::string tenant;
  /// kPriority ranking: higher runs first and may preempt lower. Ties
  /// break on arrival time, then submission sequence.
  int priority = 0;
  /// Closed-loop chaining: when >= 0, this job arrives only after the
  /// job with that submission sequence terminates (submit_time_s then
  /// acts as the think delay). Must reference an earlier submission.
  int after_seq = -1;

  int world_size() const { return core::world_size_for(settings.ncalc); }
};

/// Deterministic SJF ranking key: the hint when given, else a shape proxy
/// (frames x systems). Only the *ordering* matters — ties break on
/// submission sequence.
double estimate_virtual_cost(const JobSpec& spec);

/// The slots a job was granted: `shared_nodes[i]` is the shared-spec index
/// of sub_spec node i, `ranks_per_node[i]` how many of the job's ranks run
/// there. `placement` maps the job's world (manager, image generator,
/// calculators) onto sub_spec nodes. sub_spec carries the shared spec's
/// preferred interconnect, compiler and platform.
struct Assignment {
  std::vector<int> shared_nodes;
  std::vector<int> ranks_per_node;
  cluster::ClusterSpec sub_spec;
  cluster::Placement placement;

  int world_size() const { return placement.world_size(); }
};

/// Grant `world` CPU slots out of `free_slots` (per shared node), packing
/// the fastest free nodes first (rate desc, index asc — deterministic).
/// Ranks fill a node's granted slots before spilling to the next node;
/// rank 0 (manager) lands on the fastest granted node, rank 1 (image
/// generator) next to it. Throws std::invalid_argument if the free slots
/// cannot hold `world` ranks.
Assignment assign_slots(const cluster::ClusterSpec& shared,
                        const std::vector<int>& free_slots, int world);

/// Re-grant a suspended job's original assignment onto whatever free slots
/// exist now: every original position needs one free node of the *same
/// type* (name, cpus, rate, ram) with enough free slots, found best-fit
/// (fewest free slots, then lowest index; positions matched largest rank
/// count first). The returned assignment reuses the original's
/// sub_spec/ranks_per_node/placement verbatim — only shared_nodes may
/// differ — so rank rates, splits and every other simulation input are
/// identical and the resumed run is bit-exact even across a node
/// migration. Returns nullopt when the free slots cannot host it yet.
std::optional<Assignment> match_assignment(const cluster::ClusterSpec& shared,
                                           const std::vector<int>& free_slots,
                                           const Assignment& original);

/// Everything known about a job after the farm ran it.
struct JobResult {
  JobState state = JobState::kQueued;
  /// Farm virtual times. start - submit is queueing delay; finish - start
  /// is the contention-stretched service time.
  double start_s = 0.0;
  double finish_s = 0.0;
  /// The job's own virtual makespan (== result.animation_s), bit-identical
  /// to a standalone run on assignment.sub_spec/placement.
  double standalone_makespan_s = 0.0;
  /// (finish - start) / standalone makespan: exactly 1.0 on an idle farm,
  /// > 1 when SMP-sharing neighbors slowed this job down.
  double stretch = 1.0;
  Assignment assignment;
  core::ParallelResult result;
  std::uint64_t fb_hash = 0;  ///< render::hash_framebuffer(result.final_frame)
  std::string error;          ///< non-empty iff state == kFailed
  /// How many times the farm checkpointed this job out of its slots.
  int preemptions = 0;
  /// True when any restore landed on a different shared-node set than the
  /// segment it resumed (the vault's cross-node bit-exactness in action).
  bool migrated = false;
  /// The checkpoint frame of each preemption, in order.
  std::vector<std::uint32_t> preempt_frames;
  /// True when the job started past a blocked higher-ranked job under EASY
  /// backfill (it provably could not delay that job's reservation).
  bool backfilled = false;
  /// The reservation pinned the first time this job blocked at the head of
  /// the policy order (farm virtual time it was promised to start by);
  /// -1 when the job never blocked. Backfill never moves a start past it.
  double reserved_at_s = -1.0;
};

}  // namespace psanim::farm
