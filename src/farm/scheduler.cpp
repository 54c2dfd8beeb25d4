#include "farm/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace psanim::farm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Min-heap order for arrivals: earliest instant, then submission seq.
bool arrival_later(const std::pair<double, int>& a,
                   const std::pair<double, int>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second > b.second;
}

/// Segment time at which `frame` completed, if the segment ran it.
std::optional<double> frame_time(const Timeline& timeline,
                                 std::uint32_t frame) {
  const auto it = std::lower_bound(
      timeline.begin(), timeline.end(), frame,
      [](const auto& p, std::uint32_t v) { return p.first < v; });
  if (it == timeline.end() || it->first != frame) return std::nullopt;
  return it->second;
}

/// The earliest checkpoint frame `s` has not yet passed, with its segment
/// time: the job drains there (sealing that snapshot) and vacates. A
/// segment beyond its last snapshot frame finishes naturally instead.
std::optional<std::pair<std::uint32_t, double>> pick_vacate(
    const Segment& s, std::uint32_t frames) {
  for (auto f = s.ckpt.next_snapshot_at_or_after(0, frames, s.resume); f;
       f = s.ckpt.next_snapshot_at_or_after(*f + 1, frames, s.resume)) {
    const auto at = frame_time(s.timeline, *f);
    if (at && *at >= s.progress) return std::make_pair(*f, *at);
  }
  return std::nullopt;
}

template <typename R>
bool release_before(const R& a, const R& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

}  // namespace

Scheduler::Scheduler(const cluster::ClusterSpec& shared,
                     const FarmOptions& options)
    : shared_(shared), options_(options) {
  preemptive_ = (options_.policy == Policy::kPriority ||
                 options_.policy == Policy::kFairShare) &&
                options_.preempt_interval > 0;
  for (const auto& n : shared_.nodes) {
    capacity_.push_back(n.cpus);
    free_total_ += n.cpus;
  }
  free_ = capacity_;
  occupancy_.assign(capacity_.size(), 0);
  usage_.assign(capacity_.size(), NodeUsage{});
}

void Scheduler::add(const JobSpec& spec) {
  const int seq = static_cast<int>(jobs_.size());
  jobs_.push_back({&spec, estimate_virtual_cost(spec), spec.submit_time_s});
  if (spec.after_seq >= 0) {
    dependents_[spec.after_seq].push_back(seq);
  } else {
    arrivals_.emplace_back(spec.submit_time_s, seq);
    std::push_heap(arrivals_.begin(), arrivals_.end(), arrival_later);
  }
}

// --- the slot ledger and the contention model ----------------------------

void Scheduler::hold(const Assignment& a, int sign) {
  for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
    const auto n = static_cast<std::size_t>(a.shared_nodes[k]);
    const int ranks = sign * a.ranks_per_node[k];
    free_[n] -= ranks;
    occupancy_[n] += ranks;
    free_total_ -= ranks;
  }
}

/// The slowdown of `a` when shared node n carries load[n] ranks. The in-job
/// rate model already charges smp_contention when the job itself shares a
/// node; the farm adds the penalty only where *neighbor* ranks turn a
/// rank's exclusive node into a shared one. Slots are never
/// oversubscribed, so bus sharing is the whole contention. With load =
/// occupancy this is the current stretch; with load = capacity it is the
/// worst case, so finish estimates taken at it are upper bounds on the true
/// release instants — what makes EASY reservations safe to backfill against.
double Scheduler::stretch(const Assignment& a,
                          const std::vector<int>& load) const {
  const double smp = options_.cost.smp_contention;
  if (!(smp > 0.0 && smp < 1.0)) return 1.0;
  for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
    if (a.ranks_per_node[k] == 1 &&
        load[static_cast<std::size_t>(a.shared_nodes[k])] > 1) {
      return 1.0 / smp;
    }
  }
  return 1.0;
}

// --- policy ranking ------------------------------------------------------

double Scheduler::score(const std::string& tenant) const {
  const auto it = tenant_score_.find(tenant);
  return it == tenant_score_.end() ? 0.0 : it->second;
}

/// The policy's claim to slots: negative when `a` deserves them more than
/// `b`, positive when less, 0 when the policy ties them (kFifo always).
/// Queue order is most deserving first; victims are the least deserving.
int Scheduler::deserve(const Job& a, const Job& b) const {
  switch (options_.policy) {
    case Policy::kSjf:
      if (a.est != b.est) return a.est < b.est ? -1 : 1;
      break;
    case Policy::kPriority:
      if (a.spec->priority != b.spec->priority) {
        return a.spec->priority > b.spec->priority ? -1 : 1;
      }
      break;
    case Policy::kFairShare: {
      const double ua = score(a.spec->tenant);
      const double ub = score(b.spec->tenant);
      if (ua != ub) return ua < ub ? -1 : 1;
      break;
    }
    case Policy::kFifo:
      break;
  }
  return 0;
}

// --- arrivals and the queue ----------------------------------------------

void Scheduler::release_dependents(int seq) {
  const auto it = dependents_.find(seq);
  if (it == dependents_.end()) return;
  for (const int dep : it->second) {
    jobs_[dep].arrive_s = t_ + jobs_[dep].spec->submit_time_s;
    arrivals_.emplace_back(jobs_[dep].arrive_s, dep);
    std::push_heap(arrivals_.begin(), arrivals_.end(), arrival_later);
  }
  dependents_.erase(it);
}

void Scheduler::arrive() {
  while (!arrivals_.empty() && arrivals_.front().first <= t_) {
    std::pop_heap(arrivals_.begin(), arrivals_.end(), arrival_later);
    queue_.push_back(arrivals_.back().second);
    arrivals_.pop_back();
  }
}

void Scheduler::drop(int seq) {
  std::erase(queue_, seq);
  release_dependents(seq);
}

/// Queued-job count breakpoints: a sample at the same instant overwrites
/// (steps within one event collapse to the final depth), an unchanged
/// depth adds nothing.
void Scheduler::sample_depth(int depth) {
  auto& qd = queue_depth_;
  if (!qd.empty() && qd.back().first == t_) {
    qd.back().second = depth;
  } else if (qd.empty() || qd.back().second != depth) {
    qd.emplace_back(t_, depth);
  }
}

// --- preemption ----------------------------------------------------------

/// Mark enough less-deserving running jobs kPreempting that, once they
/// vacate, `blocked` fits. A job checkpointed out max_preemptions_per_job
/// times keeps its slots (starvation guard).
void Scheduler::mark_victims(const Job& blocked, std::vector<int>& victims) {
  const int needed = blocked.spec->world_size();
  int avail = free_total_;
  for (const auto& r : running_) {
    if (r.preempting) avail += r.assignment.world_size();
  }
  if (avail >= needed) return;  // enough vacates already in flight

  struct Cand {
    Segment* r;
    double cost;  ///< farm-seconds of slot time lost draining to the ckpt
  };
  std::vector<Cand> cands;
  for (auto& r : running_) {
    const Job& job = jobs_[r.seq];
    if (r.preempting ||
        job.preemptions >= options_.max_preemptions_per_job ||
        deserve(job, blocked) <= 0) {
      continue;
    }
    const auto v = pick_vacate(r, job.spec->settings.frames);
    if (!v) continue;
    cands.push_back({&r, (v->second - r.progress) * r.stretch});
  }
  // kLeastDeserving: the least deserving job, then the youngest segment
  // (least sunk work re-queued). kCostAware leads with the drain cost —
  // distance to the nearest checkpoint frame in farm time — so the
  // eviction wastes the least slot time.
  std::sort(cands.begin(), cands.end(), [&](const Cand& ca, const Cand& cb) {
    const Segment* a = ca.r;
    const Segment* b = cb.r;
    if (options_.victim_selection == VictimSelection::kCostAware &&
        ca.cost != cb.cost) {
      return ca.cost < cb.cost;
    }
    if (const int d = deserve(jobs_[a->seq], jobs_[b->seq])) return d > 0;
    if (a->start != b->start) return a->start > b->start;
    return a->seq > b->seq;
  });
  for (const Cand& cand : cands) {
    Segment* c = cand.r;
    const auto v = pick_vacate(*c, jobs_[c->seq].spec->settings.frames);
    c->preempting = true;
    c->preempt_frame = v->first;
    c->vacate_progress = v->second;
    victims.push_back(c->seq);
    avail += c->assignment.world_size();
    if (avail >= needed) break;
  }
}

// --- EASY reservations ---------------------------------------------------

/// Upper bounds on when each running segment's slots come back: its
/// remaining work (to the vacate point when marked) at worst-case stretch.
/// Grants made earlier in the same pass hold slots with *unknown*
/// durations (learned only at launch), so they contribute no release —
/// the reservation errs late, never early.
std::vector<Scheduler::Release> Scheduler::releases() const {
  std::vector<Release> out;
  out.reserve(running_.size());
  for (const auto& r : running_) {
    const double work =
        (r.preempting ? r.vacate_progress : r.duration) - r.progress;
    out.push_back({t_ + std::max(0.0, work) * stretch(r.assignment, capacity_),
                   r.seq, r.assignment.shared_nodes,
                   r.assignment.ranks_per_node});
  }
  std::sort(out.begin(), out.end(), release_before<Release>);
  return out;
}

/// Earliest instant `seq` fits as `sim_free` grows by each release in
/// turn; kInf when even every release is not enough. A suspended job fits
/// only onto nodes matching its original grant.
double Scheduler::earliest_fit(int seq, std::vector<int> sim_free,
                               const std::vector<Release>& rels) const {
  const auto sit = suspended_.find(seq);
  const auto fits = [&] {
    if (sit != suspended_.end()) {
      return match_assignment(shared_, sim_free, sit->second.assignment)
          .has_value();
    }
    int free_total = 0;
    for (const int f : sim_free) free_total += f;
    return jobs_[seq].spec->world_size() <= free_total;
  };
  if (fits()) return t_;
  for (const auto& rel : rels) {
    for (std::size_t k = 0; k < rel.nodes.size(); ++k) {
      sim_free[static_cast<std::size_t>(rel.nodes[k])] += rel.ranks[k];
    }
    if (fits()) return rel.at;
  }
  return kInf;
}

/// EASY admission: `seq` may start on `got` past the blocked head
/// `reserved` only when the reservation provably survives. Cond-2: it
/// survives even if `seq` never releases its slots. Cond-1: `seq`'s
/// runtime upper bound — exact remaining work for a suspended job,
/// calibrated est_ratio_max_ x est for a fresh one — releases them in
/// time. On success `rels` gains that release so later candidates see it.
bool Scheduler::backfill_ok(int seq, const Assignment& got, int reserved,
                            double reserve_at,
                            std::vector<Release>& rels) const {
  if (reserve_at == kInf) return false;  // no credible reservation yet
  const auto sit = suspended_.find(seq);
  double ub_work = -1.0;
  if (sit != suspended_.end()) {
    ub_work = sit->second.duration - sit->second.vacate_progress;
  } else if (est_ratio_max_ > 0.0) {
    ub_work = jobs_[seq].est * est_ratio_max_;
  }
  std::vector<int> sim_free = free_;
  for (std::size_t k = 0; k < got.shared_nodes.size(); ++k) {
    sim_free[static_cast<std::size_t>(got.shared_nodes[k])] -=
        got.ranks_per_node[k];
  }
  std::vector<Release> with = rels;
  if (ub_work >= 0.0) {
    const Release mine{t_ + ub_work * stretch(got, capacity_), seq,
                       got.shared_nodes, got.ranks_per_node};
    with.insert(std::upper_bound(with.begin(), with.end(), mine,
                                 release_before<Release>),
                mine);
  }
  if (earliest_fit(reserved, std::move(sim_free), with) > reserve_at) {
    return false;  // would (or might) delay the reserved start
  }
  rels = std::move(with);
  return true;
}

// --- the scheduling pass -------------------------------------------------

/// Hold `got` for `seq` and describe the segment the executor launches: a
/// restore resumes the vacated segment's frame under its policy; a fresh
/// launch under a preemptive policy snapshots the preemption grid (the
/// job's own ckpt policy, or preempt_interval when it has none).
Segment Scheduler::grant(int seq, Assignment got) {
  Segment seg;
  seg.seq = seq;
  const auto sit = suspended_.find(seq);
  if (sit != suspended_.end()) {
    seg.restore = true;
    seg.migrated = got.shared_nodes != sit->second.assignment.shared_nodes;
    seg.resume = sit->second.preempt_frame;
    seg.preempt_capable = true;
    seg.ckpt = sit->second.ckpt;
    suspended_.erase(sit);
  } else if (preemptive_) {
    const Job& job = jobs_[seq];
    seg.preempt_capable = true;
    seg.resume = job.spec->settings.resume_from;
    seg.ckpt = job.spec->settings.ckpt;
    if (!seg.ckpt.enabled()) seg.ckpt.interval = options_.preempt_interval;
  }
  hold(got);
  seg.assignment = std::move(got);
  return seg;
}

Scheduler::Pass Scheduler::pass() {
  Pass out;
  std::vector<int> order = queue_;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (const int d = deserve(jobs_[a], jobs_[b])) return d < 0;
    if (jobs_[a].arrive_s != jobs_[b].arrive_s) {
      return jobs_[a].arrive_s < jobs_[b].arrive_s;
    }
    return a < b;
  });
  int reserved = -1;  // the blocked head, if any
  double reserve_at = kInf;
  std::vector<Release> rels;  // valid while reserved >= 0
  for (const int seq : order) {
    Job& job = jobs_[seq];
    const int world = job.spec->world_size();
    // Slots now? A suspended job re-enters only onto nodes matching its
    // original grant (bit-exactness needs identical rates) — anywhere such
    // nodes are free, not necessarily where it ran before.
    const auto sit = suspended_.find(seq);
    const bool is_suspended = sit != suspended_.end();
    std::optional<Assignment> got;
    if (is_suspended) {
      got = match_assignment(shared_, free_, sit->second.assignment);
    } else if (world <= free_total_) {
      got = assign_slots(shared_, free_, world);
    }
    if (!got) {
      if (!preemptive_) continue;  // kFifo/kSjf: backfill unconditionally
      if (reserved >= 0) continue;  // one reservation at a time
      // The blocked head. Mark eviction victims for a fresh job (a
      // suspended one waits for matching nodes instead — evicting to
      // re-host it would thrash), then pin its reservation.
      if (!is_suspended) mark_victims(job, out.victims);
      reserved = seq;
      rels = releases();
      reserve_at = earliest_fit(seq, free_, rels);
      if (reserve_at < kInf && job.reserved_at < 0.0) {
        job.reserved_at = reserve_at;
        ++counters_.reservations;
        out.reserved_seq = seq;
        out.reserved_at = reserve_at;
      }
      if (!options_.easy_backfill) break;  // strict head-of-line
      continue;
    }
    const bool backfill = reserved >= 0;
    if (backfill && !backfill_ok(seq, *got, reserved, reserve_at, rels)) {
      continue;
    }
    out.launches.push_back(grant(seq, std::move(*got)));
    if (backfill) {
      out.launches.back().backfilled = true;
      ++counters_.backfills;
    }
  }
  for (const auto& seg : out.launches) std::erase(queue_, seg.seq);
  return out;
}

// --- outcomes ------------------------------------------------------------

void Scheduler::launched(Segment seg, double animation_s, Timeline timeline) {
  for (const int n : seg.assignment.shared_nodes) {
    const auto i = static_cast<std::size_t>(n);
    usage_[i].peak_ranks = std::max(usage_[i].peak_ranks, occupancy_[i]);
  }
  seg.start = t_;
  seg.duration = animation_s;
  if (seg.preempt_capable) {
    seg.timeline = std::move(timeline);
    if (seg.resume) {
      // A resumed run owes only the frames past its checkpoint, so
      // animation_s measures that remainder while the timeline is
      // absolute: rebase the duration, or the segment is double-charged
      // and its finish estimate lands in the past. Restores and
      // resume_from submissions (recovered jobs) alike.
      if (const auto at = frame_time(seg.timeline, *seg.resume)) {
        seg.progress = *at;
      }
      seg.duration = seg.progress + animation_s;
    }
  }
  const double est = jobs_[seg.seq].est;
  if (!seg.restore && !seg.resume && est > 0.0) {
    // Calibrate the estimate -> runtime upper-bound ratio EASY cond-1
    // scales by. Resume-from launches run only a remainder, which would
    // deflate the ratio below a true upper bound.
    est_ratio_max_ = std::max(est_ratio_max_, animation_s / est);
  }
  if (seg.restore) {
    ++counters_.restores;
    if (seg.migrated) ++counters_.migrations;
  }
  running_.push_back(std::move(seg));
}

void Scheduler::abandon(const Segment& seg) {
  release(seg.assignment);
  release_dependents(seg.seq);
}

// --- the clock -----------------------------------------------------------

std::optional<Scheduler::Step> Scheduler::advance() {
  sample_depth(static_cast<int>(queue_.size()));
  // Occupancy is stable until the next event: refresh stretches and the
  // projected finish/vacate instants.
  for (auto& r : running_) {
    r.stretch = stretch(r.assignment, occupancy_);
    r.finish_est = t_ + (r.duration - r.progress) * r.stretch;
    if (r.preempting) {
      r.vacate_est = t_ + (r.vacate_progress - r.progress) * r.stretch;
    }
  }
  double t_next = kInf;
  if (!arrivals_.empty()) t_next = arrivals_.front().first;
  for (const auto& r : running_) {
    t_next = std::min(t_next, r.preempting ? r.vacate_est : r.finish_est);
  }
  if (t_next == kInf) {  // nothing running, nothing arriving
    sample_depth(0);
    return std::nullopt;
  }

  // Every running job drains standalone-equivalent work at 1/stretch,
  // every shared node accumulates its resident ranks, every tenant its
  // rank-seconds of service.
  const double dt = t_next - t_;
  if (dt > 0.0) {
    // Decayed fair-share: the scheduling score halves every half_life_s
    // of farm time before this interval's service lands. With no
    // half-life the score stays bit-identical to the raw integral.
    const double hl = options_.fair_share.half_life_s;
    if (hl > 0.0) {
      const double decay = std::exp2(-dt / hl);
      for (auto& [tenant, s] : tenant_score_) s *= decay;
    }
    for (auto& r : running_) {
      r.progress += dt / r.stretch;
      const double add = static_cast<double>(r.assignment.world_size()) * dt;
      tenant_used_[jobs_[r.seq].spec->tenant] += add;
      tenant_score_[jobs_[r.seq].spec->tenant] += add;
    }
    for (std::size_t n = 0; n < usage_.size(); ++n) {
      usage_[n].busy_rank_s += static_cast<double>(occupancy_[n]) * dt;
    }
  }
  t_ = t_next;

  // Every segment due now ends, in admission order (the deterministic
  // tiebreak for simultaneous events). A preempting job never finishes: it
  // vacates at its sealed checkpoint frame and re-queues.
  Step step;
  for (auto it = running_.begin(); it != running_.end();) {
    if ((it->preempting ? it->vacate_est : it->finish_est) > t_) {
      ++it;
      continue;
    }
    release(it->assignment);
    if (it->preempting) {
      ++jobs_[it->seq].preemptions;
      ++counters_.preemptions;
      step.vacated.emplace_back(it->seq, it->preempt_frame);
      queue_.push_back(it->seq);
      suspended_[it->seq] = std::move(*it);
    } else {
      step.finished.push_back(it->seq);
      release_dependents(it->seq);
    }
    it = running_.erase(it);
  }
  return step;
}

}  // namespace psanim::farm
