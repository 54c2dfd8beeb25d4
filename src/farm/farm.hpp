#pragma once

// psanim::farm — a multi-job simulation scheduler over one shared virtual
// cluster.
//
// The paper runs one animation on the whole cluster; a production service
// runs many at once. Farm accepts N independent jobs (each its own scene +
// settings), admission-checks them against the shared ClusterSpec, and
// runs what its farm::Scheduler decides: every job executes as its own
// mp::Runtime over the CPU slots it was granted, co-scheduled jobs
// concurrently in wall-clock too, and every decision is journaled.
//
// Two-level virtual time. Each job's *internal* virtual time is exactly
// what a standalone run on its granted sub-cluster would measure — the
// farm never alters a job's inputs, so results (framebuffer, particles,
// makespan) are bit-identical to standalone. The *farm-level* timeline is
// the scheduler's discrete-event simulation (see scheduler.hpp), where a
// job co-resident with neighbors on an SMP node drains its work slower by
// the bus-sharing factor (cost.smp_contention). Capacity is never
// oversubscribed, and the DES depends only on virtual quantities, never on
// wall-clock interleaving.
//
// Preemption (kPriority / kFairShare). The vault is the preemption
// mechanism: an evicted job drains to the earliest checkpoint frame it has
// not yet passed, seals that snapshot in its per-job vault, frees its
// slots (kPreempting -> kSuspended), and is later relaunched with
// `resume_from = that frame` on any free nodes whose types match the
// original grant. The resumed run reuses the original sub_spec/placement
// verbatim, so the restored animation is bit-identical to the
// uninterrupted run. There is deliberately no in-memory freeze path; see
// DESIGN.md.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/vault.hpp"
#include "cluster/cost_model.hpp"
#include "farm/job.hpp"
#include "farm/journal.hpp"
#include "mp/runtime.hpp"
#include "obs/metrics.hpp"

namespace psanim::farm {

struct FarmOptions {
  Policy policy = Policy::kFifo;
  /// Cost model forwarded to every job's run (and the source of the
  /// cross-job SMP contention factor).
  cluster::CostModel cost;
  /// Wall-clock receive timeout forwarded to every job's runtime.
  double recv_timeout_s = 60.0;
  /// When set, every job gets a per-job Chrome trace written to
  /// `<obs_dir>/<job name>.trace.json` plus an in-process obs::analysis
  /// report (critical path / straggler attribution) at
  /// `<obs_dir>/<job name>.analysis.json`, with rank names namespaced by
  /// job ("jobname/manager", ...). Jobs that configured their own obs
  /// settings keep them.
  std::string obs_dir;
  /// Cap on jobs launched concurrently in wall-clock per scheduling event.
  /// <= 0 caps at std::thread::hardware_concurrency(), so a large DES
  /// batch runs in waves instead of oversubscribing the host. Virtual-time
  /// results are identical either way.
  int max_parallel_launches = 0;
  /// Execution core forwarded to every job's runtime (kDefault resolves
  /// through PSANIM_EXEC_MODE, exactly like a standalone run).
  mp::ExecMode exec_mode = mp::ExecMode::kDefault;
  /// Fiber scheduler workers per concurrently-launched job. <= 0 splits
  /// the hardware budget evenly across the max_parallel_launches slots (at
  /// least one worker each) — by the cap, not by how many jobs one DES
  /// instant happens to launch — so a farm draining hundreds of small jobs
  /// shares one machine's worth of worker threads instead of handing each
  /// lone launch a full-size pool it spends on wake-ups.
  /// Worker counts never change virtual-time results. Ignored by kThreads.
  int workers_per_job = 0;
  /// Checkpoint cadence (frames) imposed on jobs launched under a
  /// preemptive policy whose own settings leave checkpointing off — the
  /// grid of candidate vacate points. <= 0 disables preemption entirely
  /// (kPriority/kFairShare then order the queue but never evict). Jobs
  /// with their own ckpt policy keep it.
  int preempt_interval = 8;
  /// A job checkpointed out this many times is never evicted again
  /// (starvation guard for low-priority tenants under hostile load).
  int max_preemptions_per_job = 4;
  /// EASY backfill (preemptive policies only): a blocked policy head pins
  /// a reservation from the DES's upper-bound release instants, and later
  /// jobs start only when they provably cannot delay it (see
  /// Scheduler::pass). Off = strict head-of-line.
  bool easy_backfill = false;
  /// How mark_victims ranks eligible victims (see VictimSelection).
  VictimSelection victim_selection = VictimSelection::kLeastDeserving;
  struct FairShareOptions {
    /// Exponential half-life (farm virtual seconds) applied to the
    /// per-tenant service integral that kFairShare orders and selects
    /// victims by — yesterday's hogging decays instead of starving a
    /// tenant forever. <= 0 keeps the full-history integral (PR-9
    /// behavior). Report::tenant_rank_s always stays the raw integral.
    double half_life_s = 0.0;
  };
  FairShareOptions fair_share;
  /// When set, every scheduling decision (submit/launch/preempt/restore/
  /// finish) is appended — versioned, CRC-framed, flushed per record — to
  /// this file, so a crashed farm process can rebuild its queue with
  /// recover_journal(). Empty = no journal.
  std::string journal_path;
  /// Keep each job's full ParallelResult payload in JobResult::result.
  /// Off, only the scalars survive (fb hash, makespan, SLO inputs) — a
  /// 10k-job stress run would otherwise hold every framebuffer at once.
  bool keep_results = true;
};

/// Per-shared-node usage over the whole farm run, fed by the shared node
/// clocks.
struct NodeUsage {
  int peak_ranks = 0;       ///< max resident ranks at any farm-virtual instant
  double busy_rank_s = 0.0; ///< integral of resident ranks over farm time
};

struct Report {
  Policy policy = Policy::kFifo;
  double makespan_s = 0.0;        ///< last job finish (farm virtual time)
  double total_flow_s = 0.0;      ///< sum over jobs of finish - submit
  double mean_turnaround_s = 0.0; ///< total_flow / completed jobs
  std::size_t jobs_done = 0;
  std::size_t jobs_failed = 0;
  std::size_t jobs_cancelled = 0;
  /// Jobs evicted at least once (preemption *events* are the
  /// psanim_farm_preemptions_total counter in `metrics`).
  std::size_t jobs_preempted = 0;
  /// Jobs started past a blocked head under EASY backfill.
  std::size_t jobs_backfilled = 0;
  /// Job names in completion order — deterministic for a fixed submission
  /// set (ordered by finish time, submission sequence as tiebreak).
  std::vector<std::string> completion_order;
  std::vector<NodeUsage> nodes;  ///< indexed by shared-spec node
  /// Scheduler SLO distributions over *completed* jobs, exact-sample
  /// (obs::Quantiles): wait = start - submit, turnaround = finish -
  /// submit, slowdown = turnaround / the job's standalone makespan (its
  /// ideal contention-free run; 1.0 recorded when the ideal is unknown).
  /// Empty when jobs_done == 0 — quantile() then answers 0.0, never NaN.
  obs::Quantiles wait_q;
  obs::Quantiles turnaround_q;
  obs::Quantiles slowdown_q;
  /// Queued-job count breakpoints (farm time, depth) — a step series
  /// sampled after every scheduling pass settles (suspended jobs count:
  /// they are waiting for slots too); deterministic, and always ends at
  /// depth 0 when the driver exits.
  std::vector<std::pair<double, int>> queue_depth;
  /// Per-tenant service: integral of resident ranks over farm time — the
  /// quantity kFairShare equalizes. Keyed by JobSpec::tenant.
  std::map<std::string, double> tenant_rank_s;
  /// Farm-level aggregates: job counts, makespan/flow, scheduling-decision
  /// counts and SLO quantiles.
  obs::MetricsRegistry metrics;
};

namespace detail {
struct JobRecord;
struct SharedState;
}  // namespace detail

class Scheduler;
struct Segment;

/// Async handle returned by Farm::submit. Valid (and non-blocking to
/// query) even after the Farm is destroyed.
class JobHandle {
 public:
  /// An empty handle referring to no job; every accessor below throws
  /// std::logic_error until a real handle (from Farm::submit) is assigned.
  JobHandle() = default;

  /// True iff this handle refers to a job (came from Farm::submit).
  bool valid() const noexcept { return rec_ != nullptr; }

  const std::string& name() const;
  /// Current state; never blocks.
  JobState poll() const;
  /// Block until the job reaches a terminal state; returns the result.
  /// The reference stays valid as long as any handle to this job lives.
  const JobResult& await() const;
  /// Cancel a job that is still queued. Returns true if this call
  /// cancelled it; false if it already started, finished or was cancelled.
  /// Running jobs are never aborted — their slots drain normally.
  bool cancel();

 private:
  friend class Farm;
  explicit JobHandle(std::shared_ptr<detail::JobRecord> rec)
      : rec_(std::move(rec)) {}
  std::shared_ptr<detail::JobRecord> rec_;
};

/// The scheduler. Lifecycle: construct over a shared spec, submit jobs
/// (admission-checked), start() to seal the queue and launch the driver,
/// await handles or wait(), then read report(). run() does the last three
/// in one call.
///
/// The shared spec is the farm's whole machine description: its
/// `platform` (topology and checkpoint disk) reaches every job through
/// assign_slots, which copies it into the job's sub_spec, where it is
/// sized to the granted nodes exactly as a standalone run on that sub_spec
/// would size it.
class Farm {
 public:
  /// Throws std::invalid_argument when the shared spec has no nodes, a
  /// node has no CPU slot, or its platform description does not parse.
  explicit Farm(cluster::ClusterSpec shared, FarmOptions options = {});
  ~Farm();

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  /// Admission controller. Rejects (throws std::invalid_argument, with an
  /// actionable message) jobs whose settings fail SimSettings::validate(),
  /// whose world (ncalc + 2) exceeds the shared cluster's total CPU slots,
  /// that share a ckpt vault with an already-admitted job (checkpoints are
  /// per-job so one job's recovery cannot stall a neighbor), or that
  /// arrive after start() sealed the queue.
  JobHandle submit(JobSpec spec);

  /// Seal the queue and launch the driver thread. Idempotent submit-side:
  /// further submits throw.
  void start();

  /// Block until every admitted job is terminal. Implies start().
  void wait();

  /// start() + wait() + report().
  Report run();

  /// Live queue recovery: boot a new Farm from a crashed farm's journal.
  /// `recover_journal(journal_path)` names the pending jobs (by original
  /// submission sequence) and, for jobs that were checkpointed out, their
  /// resume frames; the journal records scheduling, not scenes, so the
  /// caller re-supplies the original submission list in `specs` (indexed
  /// by original seq, consumed — scenes are move-only) and, for each
  /// suspended job, the vault holding its
  /// sealed snapshots in `vaults` (keyed by original seq — the per-job
  /// vault the crashed farm was given via SimSettings::ckpt_vault).
  /// Pending jobs are resubmitted in original order — suspended ones with
  /// resume_from pinned to their journaled checkpoint frame, so they
  /// recompute only the remainder and stay bit-identical to the
  /// uninterrupted run. Closed-loop after_seq edges are remapped; an edge
  /// to an already-terminal predecessor becomes an immediate arrival
  /// (think delay from time 0). Throws std::invalid_argument when a
  /// pending seq has no spec, or a suspended job's vault is missing or
  /// holds no sealed snapshot at its resume frame. The returned farm is
  /// not yet started; submit more jobs or run() it.
  static std::unique_ptr<Farm> recover(
      const std::string& journal_path, cluster::ClusterSpec shared,
      FarmOptions options, std::vector<JobSpec> specs,
      const std::map<int, std::shared_ptr<ckpt::Vault>>& vaults);

  /// Aggregate report; valid after wait() returned.
  const Report& report() const;

  /// One handle per admitted job, in submission order — how a caller who
  /// did not submit the jobs itself (a recover()ed farm) reaches results.
  std::vector<JobHandle> handles() const;

  const cluster::ClusterSpec& spec() const { return shared_; }
  const FarmOptions& options() const { return options_; }

 private:
  struct LaunchOut;

  // The driver thread: admission, the launch executor and the journal
  // around a farm::Scheduler, which owns every scheduling decision and
  // the farm-virtual clock.
  void drive();
  /// Hand jobs cancelled while waiting to the scheduler, journaling each
  /// at the sweep instant.
  void sweep(Scheduler& sched);
  /// Run one scheduling pass and execute its launch batch. Returns true
  /// when slots the pass granted came back at once (a launch failed or a
  /// cancel won the claim): the driver re-runs the pass at that instant.
  bool launch(Scheduler& sched);
  void claim(const Segment& seg, LaunchOut& out, double now);
  void execute(const std::vector<Segment>& batch,
               std::vector<LaunchOut>& outs) const;
  /// Advance the scheduler to its next event and apply its finishes and
  /// vacates to the job records; false once the farm has drained.
  bool advance(Scheduler& sched);
  void close_report(const Scheduler& sched);
  void journal(JournalType type, const detail::JobRecord& rec, double time_s,
               std::uint32_t frame = 0);

  cluster::ClusterSpec shared_;
  FarmOptions options_;
  int total_slots_ = 0;

  std::shared_ptr<detail::SharedState> ss_;
  std::vector<std::shared_ptr<detail::JobRecord>> jobs_;
  bool started_ = false;               // guarded by ss_->mu
  std::atomic<bool> waited_{false};
  std::mutex lifecycle_mu_;  ///< serializes driver_ launch/join across threads
  std::thread driver_;
  Report report_;
  std::unique_ptr<JournalWriter> journal_;

  // Driver-owned: each preempt-capable job's vault from its first launch
  // to its end (farm-owned, or a non-owning alias of the tenant's own),
  // and the obs-file names already handed out (collision suffixing).
  std::map<int, std::shared_ptr<ckpt::Vault>> vaults_;
  std::set<std::string> used_obs_names_;
  /// Vault aliases handed to recover()ed jobs — kept alive for the farm's
  /// lifetime so spec.settings.ckpt_vault raw pointers stay valid even if
  /// the caller drops its map.
  std::vector<std::shared_ptr<ckpt::Vault>> recovered_vaults_;
};

/// Re-run a finished job exactly as the farm ran it, outside the farm:
/// same sub-cluster (platform included), same placement, same settings.
/// The returned result is bit-identical to JobResult::result — the demo
/// and the property tests use this as the standalone oracle.
core::ParallelResult standalone_run(const JobSpec& spec,
                                    const Assignment& assignment,
                                    const cluster::CostModel& cost = {},
                                    double recv_timeout_s = 60.0);

}  // namespace psanim::farm
