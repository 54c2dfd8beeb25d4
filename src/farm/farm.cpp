#include "farm/farm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "farm/scheduler.hpp"
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
  JobSpec spec;  // immutable after submit
  int seq = 0;   // submission sequence (deterministic tiebreak)
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
  if (!options_.journal_path.empty()) {
    journal_ = std::make_unique<JournalWriter>(options_.journal_path);
  }
  ss_ = std::make_shared<detail::SharedState>();
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

// --- Farm: the executor ---------------------------------------------------

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

}  // namespace

/// What one launched segment produced (worker-thread output; the driver
/// merges it after joining).
struct Farm::LaunchOut {
  std::shared_ptr<ckpt::Vault> vault;     // preempt-capable segments only
  std::unique_ptr<obs::Trace> own_trace;  // must outlive the run
  std::string obs_base;  ///< "<obs_dir>/<unique job name>" when farm-traced
  core::ParallelResult res;
  std::uint64_t fb_hash = 0;  ///< of res.final_frame, on success
  bool skipped = false;  ///< cancel() won the launch race; never ran
  bool ok = false;
  std::string error;
};

void Farm::drive() {
  Scheduler sched(shared_, options_);
  for (const auto& rec : jobs_) sched.add(rec->spec);
  for (;;) {
    sched.arrive();
    sweep(sched);
    // A launch that failed, or lost its claim to a cancel, hands its slots
    // back at this same instant: re-run the pass before advancing, or
    // queued jobs that now fit could be stranded (await() deadlock). Each
    // re-pass consumes queued jobs, so this terminates.
    if (launch(sched)) continue;
    // The pass has settled: drop cancellations that landed during it.
    sweep(sched);
    if (!advance(sched)) break;
  }
  close_report(sched);
}

void Farm::sweep(Scheduler& sched) {
  std::vector<int> cancelled;
  {
    const std::scoped_lock lock(ss_->mu);
    for (const int seq : sched.waiting()) {
      if (jobs_[seq]->result.state == JobState::kCancelled) {
        cancelled.push_back(seq);
      }
    }
  }
  for (const int seq : cancelled) {
    sched.drop(seq);
    journal(JournalType::kFinish, *jobs_[seq], sched.now());
  }
}

bool Farm::launch(Scheduler& sched) {
  Scheduler::Pass pass = sched.pass();
  auto& batch = pass.launches;
  {
    const std::scoped_lock lock(ss_->mu);
    for (const int seq : pass.victims) {
      jobs_[seq]->result.state = JobState::kPreempting;
    }
    if (pass.reserved_seq >= 0) {
      jobs_[pass.reserved_seq]->result.reserved_at_s = pass.reserved_at;
    }
  }
  if (batch.empty()) return false;
  const double now = sched.now();
  std::vector<LaunchOut> outs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) claim(batch[i], outs[i], now);
  execute(batch, outs);

  // Feed failures back first so node peaks are taken from settled
  // occupancy: a launch that never ran leaves zero residency footprint.
  bool freed = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Segment& seg = batch[i];
    auto& out = outs[i];
    auto& rec = *jobs_[seg.seq];
    if (out.ok) continue;
    sched.abandon(seg);
    freed = true;
    if (!out.skipped) {
      // Failed during launch: the job completes (failed) at its start
      // time and its slots free at once — neighbors are unaffected.
      const std::scoped_lock lock(ss_->mu);
      rec.result.state = JobState::kFailed;
      rec.result.finish_s = now;
      rec.result.error = std::move(out.error);
      report_.completion_order.push_back(rec.spec.name);
      ++report_.jobs_failed;
      ss_->cv.notify_all();
    }
    journal(JournalType::kFinish, rec, now);
    vaults_.erase(seg.seq);
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& out = outs[i];
    if (!out.ok) continue;
    if (out.own_trace != nullptr) {
      out.own_trace->write_chrome_json(out.obs_base + ".trace.json");
    }
    Timeline timeline;
    if (batch[i].preempt_capable) {
      // Rollback replays re-emit frames; the last emission survives.
      std::map<std::uint32_t, double> fd;
      for (const auto& is : out.res.telemetry.image_frames()) {
        fd[is.frame] = is.frame_complete_time;
      }
      timeline.assign(fd.begin(), fd.end());
    }
    const double animation_s = out.res.animation_s;
    {
      const std::scoped_lock lock(ss_->mu);
      auto& res = jobs_[batch[i].seq]->result;
      if (batch[i].restore) {
        res.migrated = res.migrated || batch[i].migrated;
      } else {
        res.standalone_makespan_s = animation_s;
        res.fb_hash = out.fb_hash;
      }
      if (options_.keep_results) res.result = std::move(out.res);
    }
    sched.launched(std::move(batch[i]), animation_s, std::move(timeline));
  }
  return freed;
}

void Farm::claim(const Segment& seg, LaunchOut& out, double now) {
  auto& rec = *jobs_[seg.seq];
  {
    // A handle may have cancelled a queued job since the sweep; if so,
    // honor it. Suspended jobs cannot be cancelled, so a restore claim
    // never loses this race.
    const std::scoped_lock lock(ss_->mu);
    if (seg.backfilled) rec.result.backfilled = true;
    const JobState expect =
        seg.restore ? JobState::kSuspended : JobState::kQueued;
    if (rec.result.state != expect) {
      out.skipped = true;
      return;
    }
    rec.result.state = JobState::kRunning;
    if (!seg.restore) rec.result.start_s = now;
    rec.result.assignment = seg.assignment;
  }
  if (seg.restore) {
    journal(JournalType::kRestore, rec, now, *seg.resume);
    out.vault = vaults_.at(seg.seq);
    return;
  }
  journal(JournalType::kLaunch, rec, now);
  if (seg.preempt_capable) {
    // The vault outlives the segment: restores resume from it.
    out.vault = rec.spec.settings.ckpt_vault != nullptr
                    // Non-owning alias: the tenant's vault outlives the farm.
                    ? std::shared_ptr<ckpt::Vault>(
                          std::shared_ptr<void>(), rec.spec.settings.ckpt_vault)
                    : std::make_shared<ckpt::Vault>();
    vaults_[seg.seq] = out.vault;
  }
  if (!options_.obs_dir.empty() && !rec.spec.settings.obs.tracing()) {
    out.own_trace = std::make_unique<obs::Trace>();
    out.own_trace->set_rank_namespace(rec.spec.name);
    // Two jobs whose names sanitize identically must not overwrite each
    // other's files: suffix later claimants with their (unique) seq,
    // repeating if a tenant literally named a job "a-5".
    std::string base = sanitize_filename(rec.spec.name);
    while (!used_obs_names_.insert(base).second) {
      base += "-" + std::to_string(rec.seq);
    }
    out.obs_base = options_.obs_dir + "/" + base;
  }
}

void Farm::execute(const std::vector<Segment>& batch,
                   std::vector<LaunchOut>& outs) const {
  // Run the batch concurrently in wall-clock: each job is its own
  // mp::Runtime, and results are virtual-time quantities the interleaving,
  // the launch cap and the worker counts cannot change. By default at most
  // one job per hardware thread runs at once, each with an even share of
  // fiber workers sized by the cap, not by this batch (a lone small job
  // handed the whole pool spends it on wake-ups, not work).
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t cap =
      options_.max_parallel_launches > 0
          ? static_cast<std::size_t>(options_.max_parallel_launches)
          : hw;
  const int per_job_workers =
      options_.workers_per_job > 0
          ? options_.workers_per_job
          : static_cast<int>(std::max<std::size_t>(1, hw / cap));
  const auto run_one = [&](const Segment& seg, LaunchOut& out) {
    if (out.skipped) return;
    const JobSpec& spec = jobs_[seg.seq]->spec;
    try {
      core::SimSettings eff = spec.settings;
      if (seg.restore) {
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
        eff.obs.analysis_json_path = out.obs_base + ".analysis.json";
      }
      if (seg.preempt_capable) {
        // The preemption contract: snapshots of every candidate vacate
        // frame land in a vault that outlives this segment, and restores
        // pick up from the suspend frame. fb output is checkpoint-
        // invariant, so an imposed cadence changes no result.
        eff.ckpt = seg.ckpt;
        eff.ckpt_vault = out.vault.get();
        eff.resume_from = seg.resume;
      }
      mp::RuntimeOptions rt;
      rt.recv_timeout_s = options_.recv_timeout_s;
      rt.exec_mode = options_.exec_mode;
      rt.workers = per_job_workers;
      out.res = core::run_parallel(spec.scene, eff, seg.assignment.sub_spec,
                                   seg.assignment.placement, options_.cost,
                                   rt);
      out.fb_hash = render::hash_framebuffer(out.res.final_frame);
      if (seg.restore && out.fb_hash != jobs_[seg.seq]->result.fb_hash) {
        // The whole point of checkpoint-based preemption is that this can
        // never fire; a divergence is a loud failure, not a wrong answer.
        throw std::runtime_error(
            "restored run diverged from the pre-preemption framebuffer hash "
            "(determinism violation — please report)");
      }
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
  };
  for (std::size_t base = 0; base < outs.size(); base += cap) {
    // The driver runs each wave's first segment itself and threads carry
    // only the rest: nearly every pass launches a single segment, which
    // then costs no thread at all. (A persistent launch pool was tried and
    // measured worse: its condition-variable hand-offs tripled the
    // context switches of a farm_stream pass.)
    const std::size_t end = std::min(outs.size(), base + cap);
    std::vector<std::jthread> helpers;
    helpers.reserve(end - base - 1);
    for (std::size_t i = base + 1; i < end; ++i) {
      helpers.emplace_back([&, i] { run_one(batch[i], outs[i]); });
    }
    run_one(batch[base], outs[base]);
  }
}

bool Farm::advance(Scheduler& sched) {
  const auto step = sched.advance();
  if (!step) return false;
  const double t = sched.now();
  for (const int seq : step->finished) {
    auto& rec = *jobs_[seq];
    const double arrive = sched.arrival(seq);
    {
      const std::scoped_lock lock(ss_->mu);
      auto& res = rec.result;
      res.state = JobState::kDone;
      res.finish_s = t;
      // Whole-job slowdown: farm residency (first launch to final finish,
      // suspended epochs included) over the uninterrupted standalone
      // makespan; a zero ideal (defensive: no real job has one) records
      // the neutral 1.0 instead of dividing.
      const double ideal = res.standalone_makespan_s;
      res.stretch = ideal > 0.0 ? (t - res.start_s) / ideal : 1.0;
      const double turnaround = t - arrive;
      report_.completion_order.push_back(rec.spec.name);
      ++report_.jobs_done;
      report_.makespan_s = std::max(report_.makespan_s, t);
      report_.total_flow_s += turnaround;
      report_.wait_q.observe(res.start_s - arrive);
      report_.turnaround_q.observe(turnaround);
      report_.slowdown_q.observe(ideal > 0.0 ? turnaround / ideal : 1.0);
      ss_->cv.notify_all();
    }
    journal(JournalType::kFinish, rec, t);
    vaults_.erase(seq);
  }
  for (const auto& [seq, frame] : step->vacated) {
    auto& rec = *jobs_[seq];
    {
      const std::scoped_lock lock(ss_->mu);
      auto& res = rec.result;
      res.state = JobState::kSuspended;
      ++res.preemptions;
      res.preempt_frames.push_back(frame);
      if (res.preemptions == 1) ++report_.jobs_preempted;
    }
    journal(JournalType::kPreempt, rec, t, frame);
  }
  return true;
}

void Farm::close_report(const Scheduler& sched) {
  // Admission guarantees every admitted job fits an empty farm, so the
  // queue always drains. The kQueued/kSuspended branch is a safety net:
  // no job may stay non-terminal after the driver exits, or await() would
  // deadlock — if the invariant ever breaks, fail the job loudly instead.
  {
    const std::scoped_lock lock(ss_->mu);
    for (const auto& rec : jobs_) {
      if (rec->result.backfilled) ++report_.jobs_backfilled;
      if (rec->result.state == JobState::kCancelled) {
        ++report_.jobs_cancelled;
      } else if (rec->result.state == JobState::kQueued ||
                 rec->result.state == JobState::kSuspended) {
        rec->result.state = JobState::kFailed;
        rec->result.finish_s = sched.now();
        rec->result.error =
            "farm driver exited with the job still queued (scheduler "
            "invariant violation — please report)";
        report_.completion_order.push_back(rec->spec.name);
        ++report_.jobs_failed;
      }
    }
    ss_->cv.notify_all();
  }

  report_.policy = options_.policy;
  report_.nodes = sched.usage();
  report_.tenant_rank_s = sched.tenant_service();
  report_.queue_depth = sched.queue_depth();
  report_.mean_turnaround_s =
      report_.jobs_done > 0
          ? report_.total_flow_s / static_cast<double>(report_.jobs_done)
          : 0.0;

  const auto& c = sched.counters();
  auto& m = report_.metrics;
  const std::pair<const char*, double> counts[] = {
      {"jobs_submitted_total", jobs_.size()},
      {"jobs_done_total", report_.jobs_done},
      {"jobs_failed_total", report_.jobs_failed},
      {"jobs_cancelled_total", report_.jobs_cancelled},
      {"preemptions_total", c.preemptions},
      {"restores_total", c.restores},
      {"migrations_total", c.migrations},
      {"backfills_total", c.backfills},
      {"reservations_total", c.reservations},
      {"flow_seconds_total", report_.total_flow_s}};
  for (const auto& [name, v] : counts) {
    m.counter(std::string("psanim_farm_") + name).add(v);
  }
  m.gauge("psanim_farm_makespan_seconds").set(report_.makespan_s);
  // Both series are non-empty: the spec has a node, and the scheduler
  // samples the queue depth at least once.
  m.gauge("psanim_farm_peak_node_ranks")
      .set(std::ranges::max(report_.nodes, {}, &NodeUsage::peak_ranks)
               .peak_ranks);
  m.gauge("psanim_farm_queue_depth_peak")
      .set(std::ranges::max(report_.queue_depth, {}, [](const auto& s) {
             return s.second;
           }).second);
  // SLO quantile series (exported as _p50/_p95/_p99 gauges + sum/count in
  // the Prometheus dump). Empty on an all-cancelled farm — quantile()
  // answers 0.0, never NaN.
  m.quantiles("psanim_farm_wait_seconds").merge(report_.wait_q);
  m.quantiles("psanim_farm_turnaround_seconds").merge(report_.turnaround_q);
  m.quantiles("psanim_farm_slowdown").merge(report_.slowdown_q);
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
