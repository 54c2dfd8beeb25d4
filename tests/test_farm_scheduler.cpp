// farm::Scheduler against a synthetic duration oracle: no mp runtime, no
// threads, so 10k-job traces run in the fast tier. The same invariants the
// Farm-level property blitz (test_farm_sched_props) asserts end to end —
// no stranded job, capacity never oversubscribed, the queue-depth series
// drains to zero, exact-double reruns — here at 1000x the trace length,
// plus the decisions only the scheduler sees: EASY reservations never
// pushed later by a backfill, the max_preemptions_per_job starvation
// guard, and fair-share diverging from priority when tenants tie on
// priority but not on appetite.

#include "farm/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"
#include "farm_printers.hpp"

namespace psanim {
namespace {

using farm::FarmOptions;
using farm::JobSpec;
using farm::Policy;
using farm::Scheduler;

/// Virtual seconds per frame in the oracle: every frame costs the same, so
/// a job's duration is exactly frames x kFrameS and its estimate (the SJF
/// hint) is exact — EASY's calibrated runtime bound is then a true bound.
constexpr double kFrameS = 0.001;

/// splitmix64 — tiny, seedable, deterministic.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

cluster::ClusterSpec cluster_8x4() {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, 4), 8);
  return spec;
}

JobSpec job(int ncalc, std::uint32_t frames, double at,
            const std::string& tenant, int priority) {
  JobSpec j;
  j.settings.ncalc = ncalc;
  j.settings.frames = frames;
  j.submit_time_s = at;
  j.tenant = tenant;
  j.priority = priority;
  j.sjf_cost_hint = frames * kFrameS;
  return j;
}

struct Trace {
  std::vector<JobSpec> jobs;
  std::set<int> cancel;  ///< cancelled before they can start
};

/// `n` jobs at ~0.9 offered load on 32 slots: worlds 3-5, 8/12/40 frames
/// (the interval-4 preemption grid has candidates), three tenants,
/// priorities 0-2, every 10th job a closed-loop follow-up of the one
/// before, and about 2% cancelled.
Trace random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng{seed * 0x9E3779B97F4A7C15ull + 7};
  constexpr std::uint32_t kFrames[] = {8, 12, 40};
  Trace t;
  double at = 0.0;
  while (t.jobs.size() < n) {
    const int ncalc = 1 + static_cast<int>(rng.below(3));
    JobSpec j = job(ncalc, kFrames[rng.below(3)], at,
                    "t" + std::to_string(rng.below(3)),
                    static_cast<int>(rng.below(3)));
    at += rng.unit() * 0.0056;  // mean 0.0028 s ~ 0.9 of 32 slots
    const int seq = static_cast<int>(t.jobs.size());
    if (seq % 10 == 9) {
      j.after_seq = seq - 1;
      j.submit_time_s = 0.001;  // think delay
    }
    if (seq > 0 && rng.below(50) == 0) t.cancel.insert(seq);
    t.jobs.push_back(std::move(j));
  }
  return t;
}

struct Outcome {
  std::vector<double> start, finish;
  std::vector<double> reserved_at;
  std::vector<int> vacates;
  std::vector<bool> dropped, backfilled;
  std::vector<int> completion;
  std::vector<std::pair<double, int>> queue_depth;
  std::map<std::string, double> service;
  Scheduler::Counters counters;
  int max_held = 0;       ///< most ranks any node ever held
  bool oversubscribed = false;
};

/// The executor loop Farm runs, with the oracle standing in for mp: every
/// launch "runs" for its remaining frames and reports an absolute frame
/// timeline.
Outcome drive(const Trace& trace, const FarmOptions& opts) {
  const auto spec = cluster_8x4();
  const std::size_t n = trace.jobs.size();
  Scheduler s(spec, opts);
  for (const auto& j : trace.jobs) s.add(j);
  Outcome r;
  r.start.assign(n, -1.0);
  r.finish.assign(n, -1.0);
  r.reserved_at.assign(n, -1.0);
  r.vacates.assign(n, 0);
  r.dropped.assign(n, false);
  r.backfilled.assign(n, false);
  std::vector<int> held(spec.node_count(), 0);
  std::map<int, farm::Assignment> on;
  const auto hold = [&](const farm::Assignment& a, int sign) {
    for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
      const auto node = static_cast<std::size_t>(a.shared_nodes[k]);
      held[node] += sign * a.ranks_per_node[k];
      r.max_held = std::max(r.max_held, held[node]);
      if (held[node] > spec.nodes[node].cpus) r.oversubscribed = true;
    }
  };
  for (;;) {
    s.arrive();
    const std::vector<int> waiting = s.waiting();
    for (const int seq : waiting) {
      if (trace.cancel.count(seq) != 0) {
        s.drop(seq);
        r.dropped[seq] = true;
      }
    }
    Scheduler::Pass p = s.pass();
    if (p.reserved_seq >= 0) r.reserved_at[p.reserved_seq] = p.reserved_at;
    for (auto& seg : p.launches) {
      const auto& js = trace.jobs[seg.seq];
      hold(seg.assignment, +1);
      on[seg.seq] = seg.assignment;
      if (!seg.restore) r.start[seg.seq] = s.now();
      if (seg.backfilled) r.backfilled[seg.seq] = true;
      farm::Timeline timeline;
      for (std::uint32_t f = 0; f < js.settings.frames; ++f) {
        timeline.emplace_back(f, (f + 1) * kFrameS);
      }
      const double total = js.settings.frames * kFrameS;
      const double done = seg.resume ? (*seg.resume + 1) * kFrameS : 0.0;
      s.launched(std::move(seg), total - done, std::move(timeline));
    }
    const auto step = s.advance();
    if (!step) break;
    for (const int seq : step->finished) {
      r.finish[seq] = s.now();
      r.completion.push_back(seq);
      hold(on.at(seq), -1);
      on.erase(seq);
    }
    for (const auto& [seq, frame] : step->vacated) {
      ++r.vacates[seq];
      hold(on.at(seq), -1);
      on.erase(seq);
    }
  }
  EXPECT_TRUE(s.waiting().empty()) << "a job was stranded in the queue";
  EXPECT_TRUE(on.empty()) << "a segment never finished";
  r.queue_depth = s.queue_depth();
  r.service = s.tenant_service();
  r.counters = s.counters();
  return r;
}

FarmOptions opts_for(Policy policy, bool backfill = false,
                     double half_life_s = 0.0) {
  FarmOptions o;
  o.policy = policy;
  o.preempt_interval = 4;
  o.easy_backfill = backfill;
  o.fair_share.half_life_s = half_life_s;
  return o;
}

void check_invariants(const Trace& trace, const Outcome& r) {
  // No stranded job: every job either finished or was dropped as cancelled.
  std::size_t done = 0;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const bool cancelled = trace.cancel.count(static_cast<int>(i)) != 0;
    EXPECT_EQ(r.dropped[i], cancelled) << "job " << i;
    if (cancelled) continue;
    ASSERT_GE(r.finish[i], 0.0) << "job " << i << " never finished";
    EXPECT_GE(r.finish[i], r.start[i]) << "job " << i;
    ++done;
  }
  EXPECT_EQ(r.completion.size(), done);
  // Capacity never oversubscribed.
  EXPECT_FALSE(r.oversubscribed);
  EXPECT_LE(r.max_held, 4);
  // Queue-depth series strictly ordered and drained.
  ASSERT_FALSE(r.queue_depth.empty());
  EXPECT_EQ(r.queue_depth.back().second, 0);
  for (std::size_t i = 1; i < r.queue_depth.size(); ++i) {
    EXPECT_LT(r.queue_depth[i - 1].first, r.queue_depth[i].first);
  }
}

void expect_identical(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.start, b.start);  // exact doubles
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.reserved_at, b.reserved_at);
  EXPECT_EQ(a.vacates, b.vacates);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
  EXPECT_EQ(a.service, b.service);
}

constexpr std::size_t kJobs = 10'000;

class SchedulerTrace : public ::testing::TestWithParam<FarmOptions> {};

TEST_P(SchedulerTrace, TenThousandJobsHoldTheInvariantsAndRerunExactly) {
  const Trace trace = random_trace(11, kJobs);
  const Outcome r = drive(trace, GetParam());
  check_invariants(trace, r);
  expect_identical(r, drive(trace, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedulerTrace,
    ::testing::Values(opts_for(Policy::kFifo), opts_for(Policy::kSjf),
                      opts_for(Policy::kPriority),
                      opts_for(Policy::kFairShare, false, 0.05),
                      opts_for(Policy::kPriority, true)),
    [](const auto& info) {
      return to_string(info.param.policy) == "fair-share"
                 ? std::string("FairShareDecayed")
                 : to_string(info.param.policy) +
                       (info.param.easy_backfill ? "_backfill" : "");
    });

TEST(SchedulerBackfill, NeverPushesAReservationLater) {
  // The top priority outranks everything, so once such a job blocks and
  // pins a reservation, no backfill may start it later than promised.
  const Trace trace = random_trace(23, kJobs);
  const Outcome r = drive(trace, opts_for(Policy::kPriority, true));
  check_invariants(trace, r);
  EXPECT_GT(r.counters.backfills, 0) << "the EASY pass never ran";
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    if (trace.jobs[i].priority != 2 || r.reserved_at[i] < 0.0) continue;
    ++pinned;
    EXPECT_LE(r.start[i], r.reserved_at[i] + 1e-12) << "job " << i;
  }
  EXPECT_GT(pinned, 0u) << "no top-priority job ever blocked";
}

TEST(SchedulerPreempt, StarvationGuardCapsEvictionsPerJob) {
  // One long low-priority job under a steady drip of high-priority
  // arrivals: without the guard it would be evicted at every checkpoint.
  Trace trace;
  trace.jobs.push_back(job(30, 400, 0.0, "batch", 0));  // world 32: all
  for (int i = 0; i < 40; ++i) {
    trace.jobs.push_back(job(1, 8, 0.001 + 0.02 * i, "live", 5));
  }
  for (const int cap : {1, 3}) {
    SCOPED_TRACE("max_preemptions_per_job " + std::to_string(cap));
    FarmOptions o = opts_for(Policy::kPriority);
    o.max_preemptions_per_job = cap;
    const Outcome r = drive(trace, o);
    check_invariants(trace, r);
    EXPECT_EQ(r.vacates[0], cap) << "the guard must bind exactly";
    EXPECT_EQ(r.counters.preemptions, cap);
    EXPECT_EQ(r.counters.restores, cap);
  }
}

TEST(SchedulerFairShare, DivergesFromPriorityWhenTenantsTieOnPriority) {
  // Two equal-priority tenants with unequal appetite: "wide" submits
  // world-5 40-frame jobs, "narrow" world-3 8-frame clips. Priority sees
  // a tie and degenerates to arrival order; fair-share ranks the tenant
  // with less service first and evicts the over-served one for it.
  Rng rng{99};
  Trace trace;
  double at = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const bool wide = rng.below(4) != 0;
    trace.jobs.push_back(wide ? job(3, 40, at, "wide", 0)
                              : job(1, 8, at, "narrow", 0));
    at += rng.unit() * 0.012;
  }
  const Outcome prio = drive(trace, opts_for(Policy::kPriority));
  const Outcome fair = drive(trace, opts_for(Policy::kFairShare));
  check_invariants(trace, prio);
  check_invariants(trace, fair);
  EXPECT_EQ(prio.counters.preemptions, 0) << "equal priorities never evict";
  EXPECT_GT(fair.counters.preemptions, 0);
  EXPECT_NE(prio.completion, fair.completion);

  const auto worst_wait = [&](const Outcome& r, const std::string& tenant) {
    double worst = 0.0;
    for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
      if (trace.jobs[i].tenant == tenant) {
        worst = std::max(worst, r.start[i] - trace.jobs[i].submit_time_s);
      }
    }
    return worst;
  };
  EXPECT_LT(worst_wait(fair, "narrow"), worst_wait(prio, "narrow"));
}

}  // namespace
}  // namespace psanim
