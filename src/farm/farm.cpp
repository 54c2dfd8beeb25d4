#include "farm/farm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "platform/parse.hpp"
#include "render/compare.hpp"

namespace psanim::farm {

namespace detail {

/// One mutex + condvar for the whole farm: handle queries are rare and
/// driver writes are batched per scheduling event, so a single lock keeps
/// the state machine trivially consistent. Held in a shared_ptr so handles
/// outlive the Farm.
struct SharedState {
  mutable std::mutex mu;
  std::condition_variable cv;
};

struct JobRecord {
  JobSpec spec;   // immutable after submit
  int seq = 0;    // submission sequence (deterministic tiebreak)
  double est = 0; // SJF ranking key
  /// Effective arrival: submit_time_s for root jobs, predecessor finish +
  /// think delay for after_seq jobs. Driver-written; SLO waits measure
  /// from here.
  double arrive_s = 0;
  std::shared_ptr<SharedState> ss;
  JobResult result;  // guarded by ss->mu (state field is the job state)
};

}  // namespace detail

using detail::JobRecord;

// --- JobHandle ------------------------------------------------------------

namespace {

bool terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

/// Accessor guard: a default-constructed handle refers to no job.
JobRecord& deref(const std::shared_ptr<JobRecord>& rec) {
  if (rec == nullptr) {
    throw std::logic_error(
        "JobHandle: empty handle — only handles returned by Farm::submit "
        "refer to a job");
  }
  return *rec;
}

}  // namespace

const std::string& JobHandle::name() const { return deref(rec_).spec.name; }

JobState JobHandle::poll() const {
  auto& rec = deref(rec_);
  const std::scoped_lock lock(rec.ss->mu);
  return rec.result.state;
}

const JobResult& JobHandle::await() const {
  auto& rec = deref(rec_);
  std::unique_lock lock(rec.ss->mu);
  rec.ss->cv.wait(lock, [&] { return terminal(rec.result.state); });
  return rec.result;
}

bool JobHandle::cancel() {
  auto& rec = deref(rec_);
  const std::scoped_lock lock(rec.ss->mu);
  if (rec.result.state != JobState::kQueued) return false;
  rec.result.state = JobState::kCancelled;
  rec.ss->cv.notify_all();
  return true;
}

// --- Farm: admission ------------------------------------------------------

Farm::Farm(cluster::ClusterSpec shared, FarmOptions options)
    : shared_(std::move(shared)), options_(std::move(options)) {
  if (shared_.node_count() == 0) {
    throw std::invalid_argument("Farm: shared cluster has no nodes");
  }
  for (const auto& n : shared_.nodes) {
    if (n.cpus < 1) {
      throw std::invalid_argument("Farm: every node needs >= 1 CPU slot");
    }
    total_slots_ += n.cpus;
  }
  if (!platform::is_flat(shared_.platform)) {
    (void)platform::parse(shared_.platform, shared_.node_count());
  }
  preemptive_ = (options_.policy == Policy::kPriority ||
                 options_.policy == Policy::kFairShare) &&
                options_.preempt_interval > 0;
  if (!options_.journal_path.empty()) {
    journal_ = std::make_unique<JournalWriter>(options_.journal_path);
  }
  ss_ = std::make_shared<detail::SharedState>();
  occupancy_.assign(shared_.node_count(), 0);
  usage_.assign(shared_.node_count(), NodeUsage{});
}

Farm::~Farm() {
  if (driver_.joinable()) {
    driver_.join();
  } else {
    // Never started: unblock any await()ers by cancelling the queue.
    const std::scoped_lock lock(ss_->mu);
    for (auto& rec : jobs_) {
      if (rec->result.state == JobState::kQueued) {
        rec->result.state = JobState::kCancelled;
      }
    }
    ss_->cv.notify_all();
  }
}

void Farm::journal(JournalType type, const JobRecord& rec, double time_s,
                   std::uint32_t frame) {
  if (journal_ == nullptr) return;
  JournalRecord r;
  r.type = type;
  r.seq = rec.seq;
  r.time_s = time_s;
  r.frame = frame;
  r.state = rec.result.state;
  r.fb_hash = rec.result.fb_hash;
  r.name = rec.spec.name;
  r.tenant = rec.spec.tenant;
  journal_->append(r);
}

JobHandle Farm::submit(JobSpec spec) {
  const auto reject = [](const std::string& why) {
    throw std::invalid_argument("Farm::submit: " + why);
  };
  const std::scoped_lock lock(ss_->mu);
  if (started_) {
    reject("the queue is sealed — submit every job before start()");
  }
  spec.settings.validate();  // zero-frame jobs etc. fail here, with context
  if (spec.submit_time_s < 0.0) {
    reject("submit_time_s must be >= 0, got " +
           std::to_string(spec.submit_time_s));
  }
  if (spec.after_seq >= static_cast<int>(jobs_.size())) {
    reject("after_seq " + std::to_string(spec.after_seq) +
           " must reference an earlier submission (only " +
           std::to_string(jobs_.size()) + " so far)");
  }
  const int world = spec.world_size();
  if (world > total_slots_) {
    reject("job needs " + std::to_string(world) + " ranks (ncalc " +
           std::to_string(spec.settings.ncalc) +
           " + manager + image generator) but the shared cluster has only " +
           std::to_string(total_slots_) +
           " CPU slots — it can never be scheduled");
  }
  // Cross-job isolation: per-job checkpoints and traces. Two jobs writing
  // one vault/trace would race and entangle recoveries. Jobs carrying
  // neither shared pointer skip the scan, keeping a 10k-job submission
  // burst linear.
  const bool shares_anything = spec.settings.ckpt_vault != nullptr ||
                               spec.settings.obs.trace != nullptr;
  for (const auto& other : jobs_) {
    if (!shares_anything) break;
    if (spec.settings.ckpt_vault != nullptr &&
        spec.settings.ckpt_vault == other->spec.settings.ckpt_vault) {
      reject("job '" + spec.name + "' shares a ckpt vault with job '" +
             other->spec.name + "' — checkpoints are per-job");
    }
    if (spec.settings.obs.trace != nullptr &&
        spec.settings.obs.trace == other->spec.settings.obs.trace) {
      reject("job '" + spec.name + "' shares an obs::Trace with job '" +
             other->spec.name + "' — traces are per-job");
    }
  }
  auto rec = std::make_shared<JobRecord>();
  rec->seq = static_cast<int>(jobs_.size());
  if (spec.name.empty()) spec.name = "job" + std::to_string(rec->seq);
  rec->spec = std::move(spec);
  rec->est = estimate_virtual_cost(rec->spec);
  rec->arrive_s = rec->spec.submit_time_s;
  rec->ss = ss_;
  jobs_.push_back(rec);
  journal(JournalType::kSubmit, *rec, rec->spec.submit_time_s);
  return JobHandle(rec);
}

void Farm::start() {
  // lifecycle_mu_ serializes thread launch and join: without it two
  // concurrent wait()ers could both see driver_.joinable() and both
  // join() (UB), or a second start() could return before the first
  // assigned driver_.
  const std::scoped_lock lifecycle(lifecycle_mu_);
  {
    const std::scoped_lock lock(ss_->mu);
    if (started_) return;
    started_ = true;
  }
  driver_ = std::thread([this] { drive(); });
}

void Farm::wait() {
  start();
  {
    const std::scoped_lock lifecycle(lifecycle_mu_);
    if (driver_.joinable()) driver_.join();
  }
  waited_.store(true, std::memory_order_release);
}

Report Farm::run() {
  wait();
  return report_;
}

const Report& Farm::report() const {
  if (!waited_.load(std::memory_order_acquire)) {
    throw std::logic_error("Farm::report: call wait() (or run()) first");
  }
  return report_;
}

std::vector<JobHandle> Farm::handles() const {
  const std::scoped_lock lock(ss_->mu);
  std::vector<JobHandle> out;
  out.reserve(jobs_.size());
  for (const auto& rec : jobs_) out.push_back(JobHandle(rec));
  return out;
}

std::unique_ptr<Farm> Farm::recover(
    const std::string& journal_path, cluster::ClusterSpec shared,
    FarmOptions options, std::vector<JobSpec> specs,
    const std::map<int, std::shared_ptr<ckpt::Vault>>& vaults) {
  if (!options.journal_path.empty() &&
      options.journal_path == journal_path) {
    throw std::invalid_argument(
        "Farm::recover: options.journal_path must not be the journal being "
        "recovered — JournalWriter truncates on open");
  }
  const JournalRecovery rc = recover_journal(journal_path);
  auto farm =
      std::unique_ptr<Farm>(new Farm(std::move(shared), std::move(options)));
  std::map<int, int> seq_map;  // original seq -> recovered seq
  for (const auto& p : rc.pending) {
    if (p.seq < 0 || p.seq >= static_cast<int>(specs.size())) {
      throw std::invalid_argument(
          "Farm::recover: journal names pending job seq " +
          std::to_string(p.seq) + " ('" + p.name + "') but only " +
          std::to_string(specs.size()) +
          " specs were supplied — pass the crashed farm's full submission "
          "list, indexed by original seq");
    }
    JobSpec spec = std::move(specs[static_cast<std::size_t>(p.seq)]);
    if (p.resume_frame) {
      const auto vit = vaults.find(p.seq);
      if (vit == vaults.end() || vit->second == nullptr) {
        throw std::invalid_argument(
            "Farm::recover: job '" + p.name + "' (seq " +
            std::to_string(p.seq) + ") was suspended at checkpoint frame " +
            std::to_string(*p.resume_frame) +
            " but no vault was supplied for it");
      }
      if (!spec.settings.ckpt.enabled() &&
          farm->options_.preempt_interval > 0) {
        // The crashed farm imposed its preempt cadence on this job — the
        // journaled resume frame lives on that snapshot grid.
        spec.settings.ckpt.interval = farm->options_.preempt_interval;
      }
      if (!vit->second->has_sealed(*p.resume_frame)) {
        const auto fallback =
            vit->second->latest_sealed_at_or_before(*p.resume_frame);
        throw std::invalid_argument(
            "Farm::recover: the vault for job '" + p.name +
            "' holds no sealed checkpoint at resume frame " +
            std::to_string(*p.resume_frame) +
            (fallback ? " (latest sealed frame before it: " +
                            std::to_string(*fallback) + ")"
                      : " (no sealed frame precedes it either)"));
      }
      spec.settings.resume_from = p.resume_frame;
      spec.settings.ckpt_vault = vit->second.get();
      farm->recovered_vaults_.push_back(vit->second);
    }
    if (spec.after_seq >= 0) {
      const auto mit = seq_map.find(spec.after_seq);
      // Predecessor already terminal in the journal: the dependency is
      // satisfied — the think delay counts from the recovered farm's t=0.
      spec.after_seq = mit == seq_map.end() ? -1 : mit->second;
    }
    seq_map[p.seq] = static_cast<int>(farm->jobs_.size());
    farm->submit(std::move(spec));
  }
  return farm;
}

// --- Farm: the discrete-event driver --------------------------------------

struct Farm::Running {
  std::shared_ptr<JobRecord> rec;
  Assignment assignment;  // driver-owned copy (no lock needed)
  double start = 0.0;     ///< this segment's launch instant
  double duration = 0.0;  ///< this segment's virtual makespan
  double progress = 0.0;  ///< segment virtual seconds completed
  double stretch = 1.0;   ///< current slowdown (>= 1)
  double finish_est = 0.0;

  // Preemption machinery (preemptive policies only).
  bool preempting = false;        ///< marked; draining to the vacate frame
  std::uint32_t preempt_frame = 0;
  double vacate_progress = 0.0;   ///< segment virtual time of that frame
  double vacate_est = 0.0;
  /// (frame, completion virtual time) of every frame this segment
  /// executed, ascending — where candidate vacate points sit in time
  /// (candidate frames come from ckpt.next_snapshot_at_or_after).
  std::vector<std::pair<std::uint32_t, double>> timeline;
  std::shared_ptr<ckpt::Vault> vault;      ///< holds the sealed snapshots
  ckpt::CkptPolicy ckpt;                   ///< effective policy at launch
  std::optional<std::uint32_t> resume_base;
};

/// One launch the scheduling pass budgeted: which job, onto which slots,
/// and — under a preemptive policy — the checkpoint plumbing (effective
/// policy, the vault that outlives the segment, and the resume frame when
/// this is a restore of a suspended job).
struct Farm::LaunchReq {
  std::shared_ptr<JobRecord> rec;
  Assignment assignment;
  bool restore = false;
  bool migrated = false;  ///< restore landed on different shared nodes
  std::optional<std::uint32_t> resume;
  bool preempt_capable = false;
  ckpt::CkptPolicy ckpt;
  std::shared_ptr<ckpt::Vault> vault;
};

namespace {

std::string sanitize_filename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out.empty() ? "job" : out;
}

/// What one launched job produced (worker-thread output; the driver merges
/// it under the lock after joining).
struct LaunchOut {
  std::unique_ptr<obs::Trace> own_trace;  // must outlive the run
  std::string trace_path;
  std::string analysis_path;
  core::ParallelResult res;
  std::uint64_t fb_hash = 0;  ///< of res.final_frame, on success
  bool skipped = false;  ///< cancel() won the launch race; never ran
  bool ok = false;
  std::string error;
};

}  // namespace

bool Farm::launch_batch(std::vector<LaunchReq> batch, double now,
                        std::vector<Running>& running,
                        std::vector<int>& free_slots) {
  if (batch.empty()) return false;
  bool slots_freed = false;
  std::vector<LaunchOut> outs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& req = batch[i];
    auto& out = outs[i];
    {
      // Claim the job atomically: a handle may have cancelled a queued job
      // between the driver's queue sweep and here. If cancel() won, honor
      // it — skip the job (its budgeted slots unwind in the merge).
      // Suspended jobs cannot be cancelled, so a restore claim never
      // loses this race.
      const std::scoped_lock lock(ss_->mu);
      const JobState expect =
          req.restore ? JobState::kSuspended : JobState::kQueued;
      if (req.rec->result.state != expect) {
        out.skipped = true;
        slots_freed = true;
        continue;
      }
      req.rec->result.state = JobState::kRunning;
      if (!req.restore) req.rec->result.start_s = now;
      req.rec->result.assignment = req.assignment;
    }
    if (req.restore) {
      journal(JournalType::kRestore, *req.rec, now, *req.resume);
    } else {
      journal(JournalType::kLaunch, *req.rec, now);
    }
    if (!req.restore && !options_.obs_dir.empty() &&
        !req.rec->spec.settings.obs.tracing()) {
      out.own_trace = std::make_unique<obs::Trace>();
      out.own_trace->set_rank_namespace(req.rec->spec.name);
      // Two jobs whose names sanitize identically must not overwrite each
      // other's files: suffix later claimants with their (unique) seq,
      // repeating if a tenant literally named a job "a-5".
      std::string base = sanitize_filename(req.rec->spec.name);
      while (!used_obs_names_.insert(base).second) {
        base += "-" + std::to_string(req.rec->seq);
      }
      out.trace_path = options_.obs_dir + "/" + base + ".trace.json";
      out.analysis_path = options_.obs_dir + "/" + base + ".analysis.json";
    }
  }

  // Execute the batch concurrently in wall-clock (each job is its own
  // mp::Runtime with instance-isolated mailboxes/clocks; the only shared
  // mutable substrate is the thread-safe global BufferPool). Results are
  // virtual-time quantities, so the wall-clock interleaving, the
  // max_parallel_launches cap and the worker counts cannot change them.
  // By default the machine's hardware threads bound both: at most one job
  // per hardware thread runs at once, and each job's fiber scheduler gets
  // an even share of them sized by the cap, not by this batch — a lone
  // small job handed the whole pool spends it on wake-ups, not work.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t cap =
      options_.max_parallel_launches > 0
          ? static_cast<std::size_t>(options_.max_parallel_launches)
          : hw;
  const int per_job_workers =
      options_.workers_per_job > 0
          ? options_.workers_per_job
          : static_cast<int>(std::max<std::size_t>(1, hw / cap));
  const auto run_one = [this, per_job_workers](const LaunchReq& req,
                                               LaunchOut& out) {
    if (out.skipped) return;
    try {
      core::SimSettings eff = req.rec->spec.settings;
      if (req.restore) {
        // Restore segments are pure continuations: the first launch
        // already produced the job's trace and analysis, so a resumed run
        // records nothing (re-appending would double-count frames the DES
        // says were never lost).
        eff.obs = core::ObsSettings{};
      } else if (out.own_trace != nullptr) {
        eff.obs.trace = out.own_trace.get();
        // Farm-provided tracing brings the in-process analysis along:
        // per-job critical-path/straggler reports land next to the trace
        // and the cp summary metrics in the job's ParallelResult.
        eff.obs.analysis_json_path = out.analysis_path;
      }
      if (req.preempt_capable) {
        // The preemption contract: snapshots of every candidate vacate
        // frame land in a vault that outlives this segment, and restores
        // pick up from the suspend frame. A job with its own ckpt policy
        // keeps it; one without gets options_.preempt_interval imposed
        // (fb output is checkpoint-invariant, so its results are
        // unchanged — only candidate vacate points appear).
        eff.ckpt = req.ckpt;
        eff.ckpt_vault = req.vault.get();
        eff.resume_from = req.resume;
      }
      mp::RuntimeOptions rt;
      rt.recv_timeout_s = options_.recv_timeout_s;
      rt.exec_mode = options_.exec_mode;
      rt.workers = per_job_workers;
      out.res = core::run_parallel(req.rec->spec.scene, eff,
                                   req.assignment.sub_spec,
                                   req.assignment.placement, options_.cost,
                                   rt);
      out.fb_hash = render::hash_framebuffer(out.res.final_frame);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
  };
  for (std::size_t base = 0; base < outs.size(); base += cap) {
    std::vector<std::thread> workers;
    const std::size_t end = std::min(outs.size(), base + cap);
    workers.reserve(end - base);
    for (std::size_t i = base; i < end; ++i) {
      workers.emplace_back(
          [&run_one, &batch, &outs, i] { run_one(batch[i], outs[i]); });
    }
    for (auto& w : workers) w.join();
  }

  const auto unwind = [&](const Assignment& a) {
    for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
      const auto n = static_cast<std::size_t>(a.shared_nodes[k]);
      free_slots[n] += a.ranks_per_node[k];
      occupancy_[n] -= a.ranks_per_node[k];
    }
  };

  // Merge skips and failures first so node peaks (below) are computed
  // from settled occupancy: a launch that never ran must leave zero
  // residency footprint.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& req = batch[i];
    auto& out = outs[i];
    if (out.skipped) {
      unwind(req.assignment);
      release_dependents(req.rec->seq, now);
      continue;
    }
    if (out.ok && req.restore && out.fb_hash != req.rec->result.fb_hash) {
      // The whole point of checkpoint-based preemption is that this can
      // never fire; treat a divergence as a loud failure, not a silent
      // wrong answer.
      out.ok = false;
      out.error =
          "restored run diverged from the pre-preemption framebuffer hash "
          "(determinism violation — please report)";
    }
    if (out.ok) continue;
    // Failed during launch: the job completes (failed) at its start
    // time and its slots free immediately — neighbors are unaffected.
    unwind(req.assignment);
    slots_freed = true;
    {
      const std::scoped_lock lock(ss_->mu);
      req.rec->result.state = JobState::kFailed;
      req.rec->result.finish_s = now;
      req.rec->result.error = std::move(out.error);
      report_.completion_order.push_back(req.rec->spec.name);
      ++report_.jobs_failed;
      ss_->cv.notify_all();
    }
    journal(JournalType::kFinish, *req.rec, now);
    release_dependents(req.rec->seq, now);
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& req = batch[i];
    auto& out = outs[i];
    if (out.skipped || !out.ok) continue;
    if (!out.trace_path.empty()) {
      out.own_trace->write_chrome_json(out.trace_path);
    }
    for (std::size_t k = 0; k < req.assignment.shared_nodes.size(); ++k) {
      const auto n = static_cast<std::size_t>(req.assignment.shared_nodes[k]);
      usage_[n].peak_ranks = std::max(usage_[n].peak_ranks, occupancy_[n]);
    }
    Running r;
    r.rec = req.rec;
    r.assignment = req.assignment;
    r.start = now;
    r.duration = out.res.animation_s;
    if (req.preempt_capable) {
      r.vault = req.vault;
      r.ckpt = req.ckpt;
      r.resume_base = req.resume;
      // Per-frame completion timeline — where in segment-virtual time each
      // candidate vacate frame's snapshot becomes available. Rollback
      // replays re-emit frames; the last emission is the surviving one.
      std::map<std::uint32_t, double> fd;
      for (const auto& is : out.res.telemetry.image_frames()) {
        fd[is.frame] = is.frame_complete_time;
      }
      r.timeline.assign(fd.begin(), fd.end());
      if (req.resume) {
        // Resumed frames are replayed from the snapshot, not recomputed:
        // the job re-enters farm time at the checkpoint's virtual instant
        // and owes only the frames past it. animation_s measures just that
        // remainder, while the telemetry timeline (and so progress and
        // every vacate candidate) is absolute — rebase the duration to the
        // absolute scale or the segment gets double-charged and its finish
        // estimate lands in the *past*, dragging the DES clock backwards.
        // This applies to farm restores and to resume_from submissions
        // (recover()ed suspended jobs) alike.
        const auto it = fd.find(*req.resume);
        if (it != fd.end()) r.progress = it->second;
        r.duration = r.progress + out.res.animation_s;
      }
    }
    if (!req.restore && !req.resume && req.rec->est > 0.0) {
      // Calibrate the tenant-estimate -> runtime upper-bound ratio EASY
      // cond-1 backfill scales by (durations are only learned here).
      // Resume-from launches run only a remainder, which would deflate
      // the ratio below a true upper bound.
      est_ratio_max_ =
          std::max(est_ratio_max_, out.res.animation_s / req.rec->est);
    }
    {
      const std::scoped_lock lock(ss_->mu);
      auto& res = req.rec->result;
      if (req.restore) {
        res.migrated = res.migrated || req.migrated;
        if (options_.keep_results) res.result = std::move(out.res);
      } else {
        res.standalone_makespan_s = out.res.animation_s;
        res.fb_hash = out.fb_hash;
        if (options_.keep_results) res.result = std::move(out.res);
      }
    }
    if (req.restore) {
      ++restores_;
      if (req.migrated) ++migrations_;
    }
    running.push_back(std::move(r));
  }
  return slots_freed;
}

void Farm::recompute_stretch(std::vector<Running>& running) const {
  const double smp = options_.cost.smp_contention;
  for (auto& r : running) {
    double worst = 1.0;
    for (std::size_t k = 0; k < r.assignment.shared_nodes.size(); ++k) {
      const auto n = static_cast<std::size_t>(r.assignment.shared_nodes[k]);
      const int own = r.assignment.ranks_per_node[k];
      // The in-job rate model already charges smp_contention when the job
      // itself shares the node; the farm adds the penalty only when
      // *neighbor* jobs turn an exclusive node into a shared one. Slots
      // are never oversubscribed, so bus sharing is the whole contention.
      if (own == 1 && occupancy_[n] > 1 && smp > 0.0 && smp < 1.0) {
        worst = std::max(worst, 1.0 / smp);
      }
    }
    r.stretch = worst;
  }
}

void Farm::release_dependents(int seq, double at) {
  const auto it = dependents_.find(seq);
  if (it == dependents_.end()) return;
  for (auto& dep : it->second) {
    dep->arrive_s = at + dep->spec.submit_time_s;
    arrivals_.emplace_back(dep->arrive_s, dep);
    std::push_heap(arrivals_.begin(), arrivals_.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second->seq > b.second->seq;
                   });
  }
  dependents_.erase(it);
}

void Farm::mark_victims(const std::shared_ptr<JobRecord>& blocked,
                        std::vector<Running>& running, int total_free,
                        double /*now*/) {
  const int needed = blocked->spec.world_size();
  int avail = total_free;
  for (const auto& r : running) {
    if (r.preempting) avail += r.assignment.world_size();
  }
  if (avail >= needed) return;  // enough vacates already in flight

  const auto tu = [&](const std::string& tenant) {
    const auto it = tenant_score_.find(tenant);
    return it == tenant_score_.end() ? 0.0 : it->second;
  };
  // The earliest checkpoint frame this segment has not yet passed
  // (CkptPolicy::next_snapshot_at_or_after walks the candidates): the job
  // drains there (sealing that snapshot) and vacates. Jobs beyond their
  // last snapshot frame finish naturally instead.
  const auto pick_vacate =
      [](const Running& r) -> std::optional<std::pair<std::uint32_t, double>> {
    const std::uint32_t frames = r.rec->spec.settings.frames;
    for (auto f = r.ckpt.next_snapshot_at_or_after(0, frames, r.resume_base);
         f; f = r.ckpt.next_snapshot_at_or_after(*f + 1, frames,
                                                 r.resume_base)) {
      const auto it = std::lower_bound(
          r.timeline.begin(), r.timeline.end(), *f,
          [](const auto& p, std::uint32_t v) { return p.first < v; });
      if (it == r.timeline.end() || it->first != *f) continue;
      if (it->second >= r.progress) return std::make_pair(*f, it->second);
    }
    return std::nullopt;
  };

  struct Cand {
    Running* r;
    double cost;  ///< farm-seconds of slot time lost draining to the ckpt
  };
  std::vector<Cand> cands;
  for (auto& r : running) {
    if (r.preempting) continue;
    if (r.rec->result.preemptions >= options_.max_preemptions_per_job) {
      continue;  // starvation guard: this job keeps its slots
    }
    bool eligible = false;
    if (options_.policy == Policy::kPriority) {
      eligible = r.rec->spec.priority < blocked->spec.priority;
    } else {  // kFairShare: evict over-served tenants for under-served ones
      eligible = r.rec->spec.tenant != blocked->spec.tenant &&
                 tu(r.rec->spec.tenant) > tu(blocked->spec.tenant);
    }
    if (!eligible) continue;
    const auto v = pick_vacate(r);
    if (!v) continue;
    cands.push_back({&r, (v->second - r.progress) * r.stretch});
  }
  // kLeastDeserving (PR-9): lowest priority / most over-served tenant,
  // then the youngest segment (least sunk work re-queued). kCostAware
  // leads with the drain cost — distance to the nearest checkpoint frame
  // in farm time — so the eviction wastes the least slot time, with the
  // deserve ranking and seq as deterministic tie-breaks.
  std::sort(cands.begin(), cands.end(), [&](const Cand& ca, const Cand& cb) {
    const Running* a = ca.r;
    const Running* b = cb.r;
    if (options_.victim_selection == VictimSelection::kCostAware &&
        ca.cost != cb.cost) {
      return ca.cost < cb.cost;
    }
    if (options_.policy == Policy::kPriority) {
      if (a->rec->spec.priority != b->rec->spec.priority) {
        return a->rec->spec.priority < b->rec->spec.priority;
      }
    } else {
      const double ua = tu(a->rec->spec.tenant);
      const double ub = tu(b->rec->spec.tenant);
      if (ua != ub) return ua > ub;
    }
    if (a->start != b->start) return a->start > b->start;
    return a->rec->seq > b->rec->seq;
  });
  for (const Cand& cand : cands) {
    Running* c = cand.r;
    const auto v = pick_vacate(*c);
    c->preempting = true;
    c->preempt_frame = v->first;
    c->vacate_progress = v->second;
    {
      const std::scoped_lock lock(ss_->mu);
      c->rec->result.state = JobState::kPreempting;
    }
    avail += c->assignment.world_size();
    if (avail >= needed) break;
  }
}

void Farm::drive() {
  const auto arrival_later = [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second->seq > b.second->seq;
  };
  // Submission set is sealed; specs/seq/est are immutable. Root jobs
  // arrive at their submit time; closed-loop jobs (after_seq) are parked
  // until their predecessor terminates.
  for (const auto& rec : jobs_) {
    if (rec->spec.after_seq >= 0) {
      dependents_[rec->spec.after_seq].push_back(rec);
    } else {
      arrivals_.emplace_back(rec->spec.submit_time_s, rec);
    }
  }
  std::make_heap(arrivals_.begin(), arrivals_.end(), arrival_later);

  std::vector<std::shared_ptr<JobRecord>> queued;
  std::vector<Running> running;
  std::vector<int> free_slots(shared_.node_count());
  for (std::size_t n = 0; n < shared_.node_count(); ++n) {
    free_slots[n] = shared_.nodes[n].cpus;
  }

  double t = 0.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Drop handle-cancelled jobs from the wait queue; a cancelled
  // predecessor releases its closed-loop dependents at the sweep instant.
  const auto sweep = [&](double at) {
    std::vector<std::shared_ptr<JobRecord>> dropped;
    {
      const std::scoped_lock lock(ss_->mu);
      std::erase_if(queued, [&](const auto& rec) {
        const JobState st = rec->result.state;
        if (st == JobState::kQueued || st == JobState::kSuspended) {
          return false;
        }
        dropped.push_back(rec);
        return true;
      });
    }
    for (const auto& rec : dropped) release_dependents(rec->seq, at);
  };

  // Worst-case contention stretch for an assignment: what the job would
  // pay if every exclusive single-rank node it holds on a multi-slot node
  // became shared. Finish estimates taken at this stretch are upper
  // bounds on the true release instants — the property that makes EASY
  // reservations safe to backfill against.
  const auto worst_stretch = [&](const Assignment& a) {
    const double smp = options_.cost.smp_contention;
    if (!(smp > 0.0 && smp < 1.0)) return 1.0;
    for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
      if (a.ranks_per_node[k] == 1 &&
          shared_.nodes[static_cast<std::size_t>(a.shared_nodes[k])].cpus >
              1) {
        return 1.0 / smp;
      }
    }
    return 1.0;
  };

  for (;;) {
    // Arrivals up to now.
    while (!arrivals_.empty() && arrivals_.front().first <= t) {
      std::pop_heap(arrivals_.begin(), arrivals_.end(), arrival_later);
      queued.push_back(std::move(arrivals_.back().second));
      arrivals_.pop_back();
    }

    sweep(t);

    // Admit in policy order. kFifo/kSjf backfill: every job that fits
    // starts (work conservation). Preemptive policies reserve for the
    // first job that does not fit, after marking eviction victims for it;
    // with easy_backfill off nothing may jump the blocked head (PR-9
    // strict reservation), with it on later jobs start only when they
    // provably cannot delay the reserved start.
    std::vector<std::shared_ptr<JobRecord>> order = queued;
    const auto tu = [&](const std::string& tenant) {
      const auto it = tenant_score_.find(tenant);
      return it == tenant_score_.end() ? 0.0 : it->second;
    };
    std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
      switch (options_.policy) {
        case Policy::kSjf:
          if (a->est != b->est) return a->est < b->est;
          break;
        case Policy::kPriority:
          if (a->spec.priority != b->spec.priority) {
            return a->spec.priority > b->spec.priority;
          }
          break;
        case Policy::kFairShare: {
          const double ua = tu(a->spec.tenant);
          const double ub = tu(b->spec.tenant);
          if (ua != ub) return ua < ub;
          break;
        }
        case Policy::kFifo:
          break;
      }
      if (a->arrive_s != b->arrive_s) return a->arrive_s < b->arrive_s;
      return a->seq < b->seq;
    });
    int total_free = 0;
    for (const int f : free_slots) total_free += f;
    const auto budget = [&](const Assignment& a) {
      for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
        const auto n = static_cast<std::size_t>(a.shared_nodes[k]);
        free_slots[n] -= a.ranks_per_node[k];
        occupancy_[n] += a.ranks_per_node[k];
      }
    };
    // EASY reservation machinery. A Release is a known upper bound on
    // when a set of held slots comes back: running segments release their
    // slots by (remaining work at worst-case stretch); marked victims by
    // their vacate point. Jobs budgeted earlier in this same pass hold
    // slots with *unknown* durations (learned only at launch), so they
    // contribute no release — the reservation estimate errs late, never
    // early.
    struct Release {
      double at = 0.0;
      int seq = 0;
      std::vector<int> nodes;
      std::vector<int> ranks;
    };
    const auto release_of = [](double at, int seq, const Assignment& a) {
      Release rel;
      rel.at = at;
      rel.seq = seq;
      rel.nodes = a.shared_nodes;
      rel.ranks = a.ranks_per_node;
      return rel;
    };
    const auto release_order = [](const Release& a, const Release& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    };
    const auto collect_releases = [&] {
      std::vector<Release> out;
      out.reserve(running.size());
      for (const auto& r : running) {
        const double work =
            (r.preempting ? r.vacate_progress : r.duration) - r.progress;
        out.push_back(release_of(
            t + std::max(0.0, work) * worst_stretch(r.assignment),
            r.rec->seq, r.assignment));
      }
      std::sort(out.begin(), out.end(), release_order);
      return out;
    };
    // Earliest instant `rec` fits as `sim_free` grows by each release in
    // turn; kInf when even every release is not enough (slots are held by
    // jobs with unknown durations).
    const auto earliest_fit = [&](const std::shared_ptr<JobRecord>& rec,
                                  std::vector<int> sim_free,
                                  const std::vector<Release>& rels) {
      const auto fits = [&] {
        const auto sit = suspended_.find(rec->seq);
        if (sit != suspended_.end()) {
          return match_assignment(shared_, sim_free, sit->second.original)
              .has_value();
        }
        int free_total = 0;
        for (const int f : sim_free) free_total += f;
        return rec->spec.world_size() <= free_total;
      };
      if (fits()) return t;
      for (const auto& rel : rels) {
        for (std::size_t k = 0; k < rel.nodes.size(); ++k) {
          sim_free[static_cast<std::size_t>(rel.nodes[k])] += rel.ranks[k];
        }
        if (fits()) return rel.at;
      }
      return kInf;
    };

    std::vector<LaunchReq> batch;
    std::shared_ptr<JobRecord> reserved;  // the blocked head, if any
    double reserve_at = kInf;
    std::vector<Release> releases;  // valid while reserved != nullptr
    for (const auto& rec : order) {
      const auto sit = suspended_.find(rec->seq);
      const bool is_suspended = sit != suspended_.end();
      const int world = rec->spec.world_size();
      // Slots now? A suspended job re-enters only onto nodes matching its
      // original grant (bit-exactness needs identical rates); anywhere
      // such nodes are free, not necessarily where it ran before.
      std::optional<Assignment> got;
      if (is_suspended) {
        got = match_assignment(shared_, free_slots, sit->second.original);
      } else if (world <= total_free) {
        got = assign_slots(shared_, free_slots, world);
      }
      if (!got) {
        if (!preemptive_) continue;  // kFifo/kSjf: backfill unconditionally
        if (reserved != nullptr) continue;  // one reservation at a time
        // The blocked head. Mark eviction victims for a fresh job (a
        // suspended one waits for matching nodes instead — evicting to
        // re-host it would thrash), then pin its reservation from the
        // DES's own release bounds.
        if (!is_suspended) mark_victims(rec, running, total_free, t);
        reserved = rec;
        releases = collect_releases();
        reserve_at = earliest_fit(rec, free_slots, releases);
        if (reserve_at < kInf) {
          const std::scoped_lock lock(ss_->mu);
          if (rec->result.reserved_at_s < 0.0) {
            rec->result.reserved_at_s = reserve_at;
            ++reservations_;
          }
        }
        if (!options_.easy_backfill) break;  // strict head-of-line (PR 9)
        continue;
      }
      bool backfill = false;
      if (reserved != nullptr) {
        // EASY admission: start `rec` past the blocked head only when the
        // reservation provably survives. Cond-2: it survives even if
        // `rec` never releases its slots. Cond-1: `rec`'s runtime upper
        // bound — exact remaining work for a suspended job, calibrated
        // est_ratio_max_ x est for a fresh one — releases them in time.
        if (reserve_at == kInf) continue;  // no credible reservation yet
        double ub_work = -1.0;
        if (is_suspended) {
          ub_work = sit->second.remaining_s;
        } else if (est_ratio_max_ > 0.0) {
          ub_work = rec->est * est_ratio_max_;
        }
        std::vector<int> sim_free = free_slots;
        for (std::size_t k = 0; k < got->shared_nodes.size(); ++k) {
          sim_free[static_cast<std::size_t>(got->shared_nodes[k])] -=
              got->ranks_per_node[k];
        }
        std::vector<Release> with = releases;
        if (ub_work >= 0.0) {
          with.push_back(release_of(t + ub_work * worst_stretch(*got),
                                    rec->seq, *got));
          std::sort(with.begin(), with.end(), release_order);
        }
        if (earliest_fit(reserved, std::move(sim_free), with) > reserve_at) {
          continue;  // would (or might) delay the reserved start
        }
        releases = std::move(with);  // later candidates see this one too
        backfill = true;
      }
      LaunchReq req;
      req.rec = rec;
      if (is_suspended) {
        req.restore = true;
        req.migrated =
            got->shared_nodes != sit->second.original.shared_nodes;
        req.resume = sit->second.resume_frame;
        req.preempt_capable = true;
        req.ckpt = sit->second.ckpt;
        req.vault = sit->second.vault;
        suspended_.erase(sit);
      } else if (preemptive_) {
        req.preempt_capable = true;
        req.resume = rec->spec.settings.resume_from;
        req.ckpt = rec->spec.settings.ckpt;
        if (!req.ckpt.enabled()) {
          req.ckpt.interval = options_.preempt_interval;
        }
        if (rec->spec.settings.ckpt_vault != nullptr) {
          // Non-owning alias: the tenant's vault outlives the farm run.
          req.vault = std::shared_ptr<ckpt::Vault>(
              std::shared_ptr<void>(), rec->spec.settings.ckpt_vault);
        } else {
          req.vault = std::make_shared<ckpt::Vault>();
        }
      }
      budget(*got);
      total_free -= world;
      req.assignment = std::move(*got);
      if (backfill) {
        ++backfills_;
        const std::scoped_lock lock(ss_->mu);
        rec->result.backfilled = true;
      }
      batch.push_back(std::move(req));
    }
    for (const auto& req : batch) {
      queued.erase(std::find(queued.begin(), queued.end(), req.rec));
    }
    if (launch_batch(std::move(batch), t, running, free_slots)) {
      // A launch failed (or a cancel won the race), so slots the
      // scheduling pass budgeted are free again at this same instant.
      // Re-run the pass before picking t_next: otherwise, with nothing
      // running and nothing arriving, still-queued jobs that now fit
      // would be stranded kQueued forever (await() deadlock). Each
      // re-pass consumes queued jobs, so this terminates.
      continue;
    }

    // The scheduling pass has settled: drop cancellations that landed
    // during it, then record the queue-depth breakpoint (overwriting an
    // earlier sample at this same instant — steps within one event
    // collapse to the final depth).
    sweep(t);
    {
      const int depth = static_cast<int>(queued.size());
      auto& qd = report_.queue_depth;
      if (!qd.empty() && qd.back().first == t) {
        qd.back().second = depth;
      } else if (qd.empty() || qd.back().second != depth) {
        qd.emplace_back(t, depth);
      }
    }

    // Occupancy is now stable until the next event: refresh stretches and
    // projected finish/vacate instants.
    recompute_stretch(running);
    for (auto& r : running) {
      r.finish_est = t + (r.duration - r.progress) * r.stretch;
      if (r.preempting) {
        r.vacate_est = t + (r.vacate_progress - r.progress) * r.stretch;
      }
    }

    double t_next = kInf;
    if (!arrivals_.empty()) t_next = arrivals_.front().first;
    for (const auto& r : running) {
      t_next = std::min(t_next, r.preempting ? r.vacate_est : r.finish_est);
    }
    if (t_next == kInf) break;  // nothing running, nothing arriving

    // Advance the farm clock: every running job drains standalone-
    // equivalent work at 1/stretch, every shared node clock accumulates
    // its resident ranks, every tenant its rank-seconds of service.
    const double dt = t_next - t;
    if (dt > 0.0) {
      // Decayed fair-share: the scheduling score halves every
      // half_life_s of farm time before this interval's service lands.
      // With no half-life the score stays bit-identical to the raw
      // integral (same additions in the same order).
      const double hl = options_.fair_share.half_life_s;
      if (hl > 0.0) {
        const double decay = std::exp2(-dt / hl);
        for (auto& [tenant, score] : tenant_score_) score *= decay;
      }
      for (auto& r : running) {
        r.progress += dt / r.stretch;
        const double add =
            static_cast<double>(r.assignment.world_size()) * dt;
        tenant_used_[r.rec->spec.tenant] += add;
        tenant_score_[r.rec->spec.tenant] += add;
      }
      for (std::size_t n = 0; n < usage_.size(); ++n) {
        usage_[n].busy_rank_s += static_cast<double>(occupancy_[n]) * dt;
      }
    }
    t = t_next;

    // Complete every job projected to finish now (iteration order is
    // admission order — deterministic tiebreak for simultaneous
    // finishes). Preempting jobs never finish — they vacate first.
    for (auto it = running.begin(); it != running.end();) {
      if (!it->preempting && it->finish_est <= t) {
        for (std::size_t k = 0; k < it->assignment.shared_nodes.size();
             ++k) {
          const auto n =
              static_cast<std::size_t>(it->assignment.shared_nodes[k]);
          free_slots[n] += it->assignment.ranks_per_node[k];
          occupancy_[n] -= it->assignment.ranks_per_node[k];
        }
        const double arrive = it->rec->arrive_s;
        {
          const std::scoped_lock lock(ss_->mu);
          auto& res = it->rec->result;
          res.state = JobState::kDone;
          res.finish_s = t;
          // Whole-job slowdown: farm residency (first launch to final
          // finish, suspended epochs included) over the uninterrupted
          // standalone makespan.
          res.stretch = res.standalone_makespan_s > 0.0
                            ? (t - res.start_s) / res.standalone_makespan_s
                            : 1.0;
          report_.completion_order.push_back(it->rec->spec.name);
          ++report_.jobs_done;
          report_.makespan_s = std::max(report_.makespan_s, t);
          report_.total_flow_s += t - arrive;
          // SLO samples (completed jobs only). Slowdown compares against
          // the job's own standalone makespan — its ideal contention-free
          // run; a zero ideal (defensive: no real job has one) records
          // the neutral 1.0 instead of dividing.
          const double turnaround = t - arrive;
          report_.wait_q.observe(res.start_s - arrive);
          report_.turnaround_q.observe(turnaround);
          report_.slowdown_q.observe(res.standalone_makespan_s > 0.0
                                         ? turnaround /
                                               res.standalone_makespan_s
                                         : 1.0);
          ss_->cv.notify_all();
        }
        journal(JournalType::kFinish, *it->rec, t);
        release_dependents(it->rec->seq, t);
        it = running.erase(it);
      } else {
        ++it;
      }
    }

    // Vacate every preempting job whose checkpoint frame is now sealed:
    // free its slots, remember how to restore it, and re-queue it.
    for (auto it = running.begin(); it != running.end();) {
      if (it->preempting && it->vacate_est <= t) {
        for (std::size_t k = 0; k < it->assignment.shared_nodes.size();
             ++k) {
          const auto n =
              static_cast<std::size_t>(it->assignment.shared_nodes[k]);
          free_slots[n] += it->assignment.ranks_per_node[k];
          occupancy_[n] -= it->assignment.ranks_per_node[k];
        }
        SuspendInfo info;
        info.vault = it->vault;
        info.ckpt = it->ckpt;
        info.resume_frame = it->preempt_frame;
        info.remaining_s = it->duration - it->vacate_progress;
        info.original = it->assignment;
        suspended_[it->rec->seq] = std::move(info);
        {
          const std::scoped_lock lock(ss_->mu);
          auto& res = it->rec->result;
          res.state = JobState::kSuspended;
          ++res.preemptions;
          res.preempt_frames.push_back(it->preempt_frame);
          if (res.preemptions == 1) ++report_.jobs_preempted;
        }
        ++preempt_events_;
        journal(JournalType::kPreempt, *it->rec, t, it->preempt_frame);
        queued.push_back(it->rec);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Anything still queued was cancelled (admission guarantees every
  // admitted job fits an empty farm, so the queue always drains). The
  // kQueued/kSuspended branch is a safety net: no job may stay
  // non-terminal after the driver exits, or await() would deadlock — if
  // the invariant ever breaks, fail the job loudly instead.
  {
    const std::scoped_lock lock(ss_->mu);
    for (const auto& rec : jobs_) {
      if (rec->result.backfilled) ++report_.jobs_backfilled;
      if (rec->result.state == JobState::kCancelled) {
        ++report_.jobs_cancelled;
      } else if (rec->result.state == JobState::kQueued ||
                 rec->result.state == JobState::kSuspended) {
        rec->result.state = JobState::kFailed;
        rec->result.finish_s = t;
        rec->result.error =
            "farm driver exited with the job still queued (scheduler "
            "invariant violation — please report)";
        report_.completion_order.push_back(rec->spec.name);
        ++report_.jobs_failed;
      }
    }
    ss_->cv.notify_all();
  }
  for (const auto& rec : jobs_) {
    if (terminal(rec->result.state) && rec->result.state != JobState::kDone &&
        rec->result.finish_s == 0.0 &&
        rec->result.state == JobState::kCancelled) {
      journal(JournalType::kFinish, *rec, t);
    }
  }

  // The queue-depth series ends at zero by construction of the loop above
  // — except when the safety net just failed stranded jobs, or an
  // all-cancelled farm never sampled at all. Close the step series either
  // way (overwriting a same-instant sample keeps timestamps strictly
  // increasing).
  {
    auto& qd = report_.queue_depth;
    if (qd.empty() || qd.back().second != 0) {
      if (!qd.empty() && qd.back().first == t) {
        qd.back().second = 0;
      } else {
        qd.emplace_back(t, 0);
      }
    }
  }

  report_.policy = options_.policy;
  report_.nodes = usage_;
  report_.tenant_rank_s = tenant_used_;
  report_.mean_turnaround_s =
      report_.jobs_done > 0
          ? report_.total_flow_s / static_cast<double>(report_.jobs_done)
          : 0.0;

  auto& m = report_.metrics;
  m.counter("psanim_farm_jobs_submitted_total")
      .add(static_cast<double>(jobs_.size()));
  m.counter("psanim_farm_jobs_done_total")
      .add(static_cast<double>(report_.jobs_done));
  m.counter("psanim_farm_jobs_failed_total")
      .add(static_cast<double>(report_.jobs_failed));
  m.counter("psanim_farm_jobs_cancelled_total")
      .add(static_cast<double>(report_.jobs_cancelled));
  m.counter("psanim_farm_preemptions_total")
      .add(static_cast<double>(preempt_events_));
  m.counter("psanim_farm_restores_total")
      .add(static_cast<double>(restores_));
  m.counter("psanim_farm_migrations_total")
      .add(static_cast<double>(migrations_));
  m.counter("psanim_farm_backfills_total")
      .add(static_cast<double>(backfills_));
  m.counter("psanim_farm_reservations_total")
      .add(static_cast<double>(reservations_));
  m.gauge("psanim_farm_makespan_seconds").set(report_.makespan_s);
  m.counter("psanim_farm_flow_seconds_total").add(report_.total_flow_s);
  int peak = 0;
  for (const auto& u : usage_) peak = std::max(peak, u.peak_ranks);
  m.gauge("psanim_farm_peak_node_ranks").set(static_cast<double>(peak));
  // SLO quantile series (exported as _p50/_p95/_p99 gauges + sum/count in
  // the Prometheus dump). Empty on an all-cancelled farm — quantile()
  // answers 0.0, never NaN.
  m.quantiles("psanim_farm_wait_seconds").merge(report_.wait_q);
  m.quantiles("psanim_farm_turnaround_seconds").merge(report_.turnaround_q);
  m.quantiles("psanim_farm_slowdown").merge(report_.slowdown_q);
  int depth_peak = 0;
  for (const auto& [when, depth] : report_.queue_depth) {
    depth_peak = std::max(depth_peak, depth);
  }
  m.gauge("psanim_farm_queue_depth_peak")
      .set(static_cast<double>(depth_peak));
}

// --- standalone oracle ----------------------------------------------------

core::ParallelResult standalone_run(const JobSpec& spec,
                                    const Assignment& assignment,
                                    const cluster::CostModel& cost,
                                    double recv_timeout_s) {
  core::SimSettings eff = spec.settings;
  eff.obs.trace = nullptr;  // pure re-run: no shared observers, no files
  eff.obs.trace_json_path.clear();
  mp::RuntimeOptions rt;
  rt.recv_timeout_s = recv_timeout_s;
  return core::run_parallel(spec.scene, eff, assignment.sub_spec,
                            assignment.placement, cost, rt);
}

}  // namespace psanim::farm
