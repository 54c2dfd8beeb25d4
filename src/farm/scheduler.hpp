#pragma once

// psanim::farm::Scheduler — the farm's scheduling core: a single-threaded,
// deterministic discrete-event simulation of farm-virtual time.
//
// It owns every decision (queue order, slot grants, EASY reservations and
// backfill, eviction victims, the contention stretch, the clock) and
// nothing else: no threads, no locks, no mp runtime, no files, no vaults.
// Its executor (Farm, or a test's duration oracle) drives one loop:
// arrive(); drop() the cancellations; pass(); feed every grant back —
// abandon() first, then launched() — and re-pass at the same instant if
// anything was abandoned; advance(), until it returns nullopt.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/policy.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"

namespace psanim::farm {

/// (frame, completion virtual time) of every frame a segment executed,
/// ascending — where its candidate vacate points sit in segment time.
using Timeline = std::vector<std::pair<std::uint32_t, double>>;

/// One run of a job on granted slots, from launch to finish or vacate. A
/// vacated segment is kept as the job's restore record: its assignment is
/// the grant a restore must match, preempt_frame the resume frame.
struct Segment {
  int seq = -1;
  Assignment assignment;
  bool restore = false;   ///< resumes a suspended job from its vault
  bool migrated = false;  ///< restore landed on different shared nodes
  bool backfilled = false;  ///< started past a blocked head (EASY)
  /// Launched under a preemptive policy: snapshots every `ckpt` candidate
  /// frame into the job's vault, so it can be evicted at any of them.
  bool preempt_capable = false;
  ckpt::CkptPolicy ckpt;                ///< effective policy at launch
  std::optional<std::uint32_t> resume;  ///< resume_from frame, if any

  // Farm-virtual DES state, set once the launch is fed back.
  double start = 0.0;     ///< launch instant
  double duration = 0.0;  ///< segment virtual makespan (absolute scale)
  double progress = 0.0;  ///< segment virtual seconds completed
  double stretch = 1.0;   ///< current contention slowdown (>= 1)
  double finish_est = 0.0;
  bool preempting = false;  ///< marked; draining to preempt_frame
  std::uint32_t preempt_frame = 0;
  double vacate_progress = 0.0;  ///< segment virtual time of that frame
  double vacate_est = 0.0;
  Timeline timeline;  ///< only for preempt_capable segments
};

class Scheduler {
 public:
  /// What one scheduling pass decided.
  struct Pass {
    std::vector<Segment> launches;  ///< grants, held until fed back
    std::vector<int> victims;       ///< running jobs newly marked to vacate
    /// The job that pinned its first EASY reservation this pass, or -1.
    int reserved_seq = -1;
    double reserved_at = 0.0;
  };
  /// What happened at the instant advance() moved now() to.
  struct Step {
    std::vector<int> finished;  ///< in admission order
    std::vector<std::pair<int, std::uint32_t>> vacated;  ///< (seq, frame)
  };
  /// Decision counts over the whole run.
  struct Counters {
    int backfills = 0;     ///< backfilled launch events
    int reservations = 0;  ///< jobs that ever pinned a reservation
    int preemptions = 0;   ///< vacates (a job may contribute several)
    int restores = 0;
    int migrations = 0;    ///< restores onto a different shared-node set
  };

  Scheduler(const cluster::ClusterSpec& shared, const FarmOptions& options);

  /// Register the next job (its seq is the number of jobs added before
  /// it); `spec` must outlive the scheduler. Root jobs arrive at
  /// submit_time_s; after_seq jobs arrive their think delay after that
  /// predecessor ends.
  void add(const JobSpec& spec);

  double now() const { return t_; }
  /// Effective arrival of `seq`: its submit time, or its predecessor's end
  /// plus the think delay. SLO waits measure from here.
  double arrival(int seq) const { return jobs_[seq].arrive_s; }
  /// Jobs waiting for slots (fresh and suspended), in no particular order.
  const std::vector<int>& waiting() const { return queue_; }

  /// Move every arrival due by now() into the wait queue.
  void arrive();
  /// `seq` was cancelled while waiting: it leaves the queue and its
  /// closed-loop dependents arrive from now().
  void drop(int seq);
  /// Admit in policy order. kFifo/kSjf backfill: every job that fits
  /// starts. Preemptive policies reserve for the first job that does not
  /// fit, after marking eviction victims for it; with easy_backfill off
  /// nothing may jump that head, with it on later jobs start only when
  /// they provably cannot delay its reserved start.
  Pass pass();
  /// A granted segment ran: `animation_s` is its virtual makespan and
  /// `timeline` its frame completions (read for preempt-capable segments).
  void launched(Segment seg, double animation_s, Timeline timeline);
  /// A granted segment never ran or failed at launch: its slots come back
  /// at once and the job's dependents arrive from now().
  void abandon(const Segment& seg);
  /// Settle the pass (queue-depth sample, stretches, projected instants),
  /// then advance the clock to the next event and apply it.
  std::optional<Step> advance();

  const std::vector<NodeUsage>& usage() const { return usage_; }
  /// Per-tenant raw service integral (resident ranks x farm seconds).
  const std::map<std::string, double>& tenant_service() const {
    return tenant_used_;
  }
  const std::vector<std::pair<double, int>>& queue_depth() const {
    return queue_depth_;
  }
  const Counters& counters() const { return counters_; }

 private:
  struct Job {
    const JobSpec* spec = nullptr;
    double est = 0.0;  ///< SJF key and EASY runtime-bound input
    double arrive_s = 0.0;
    double reserved_at = -1.0;
    int preemptions = 0;
  };
  /// A known upper bound on when a set of held slots comes back.
  struct Release {
    double at = 0.0;
    int seq = 0;
    std::vector<int> nodes;
    std::vector<int> ranks;
  };

  /// The slot ledger: a's ranks move from free to resident, or back.
  void hold(const Assignment& a, int sign = +1);
  void release(const Assignment& a) { hold(a, -1); }
  double stretch(const Assignment& a, const std::vector<int>& load) const;
  double score(const std::string& tenant) const;
  int deserve(const Job& a, const Job& b) const;
  void release_dependents(int seq);
  void sample_depth(int depth);
  void mark_victims(const Job& blocked, std::vector<int>& victims);
  std::vector<Release> releases() const;
  double earliest_fit(int seq, std::vector<int> sim_free,
                      const std::vector<Release>& rels) const;
  bool backfill_ok(int seq, const Assignment& got, int reserved,
                   double reserve_at, std::vector<Release>& rels) const;
  Segment grant(int seq, Assignment got);

  const cluster::ClusterSpec& shared_;
  const FarmOptions& options_;
  bool preemptive_ = false;  ///< policy preempts and preempt_interval > 0
  double t_ = 0.0;

  std::vector<Job> jobs_;
  std::vector<std::pair<double, int>> arrivals_;  ///< min-heap by (t, seq)
  std::map<int, std::vector<int>> dependents_;
  std::vector<int> queue_;
  std::vector<Segment> running_;  ///< in admission order
  std::map<int, Segment> suspended_;  ///< vacated segments by seq

  std::vector<int> capacity_;   ///< CPU slots per shared node
  std::vector<int> free_;       ///< free slots per shared node
  int free_total_ = 0;
  std::vector<int> occupancy_;  ///< resident ranks per shared node
  std::vector<NodeUsage> usage_;
  std::map<std::string, double> tenant_used_;
  /// kFairShare's view of tenant_used_: identical when
  /// fair_share.half_life_s <= 0, exponentially decayed otherwise.
  std::map<std::string, double> tenant_score_;
  /// Max observed (segment duration / est) over fresh launches — the
  /// calibration that turns an estimate into a runtime upper bound for
  /// EASY cond-1 backfill. 0 until the first launch lands.
  double est_ratio_max_ = 0.0;
  std::vector<std::pair<double, int>> queue_depth_;
  Counters counters_;
};

}  // namespace psanim::farm
