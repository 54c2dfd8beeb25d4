// Farm stress regression (slow tier): 200 small jobs contending for one
// 64-node shared cluster, every job's ranks driven by the fiber
// scheduler with the per-job worker budget split across the batch.
//
// The properties under stress are the same ones the fast farm suite pins
// at toy scale: the queue drains completely (no stranded job), no node
// ever holds more resident ranks than it has CPU slots, and the whole
// Report — completion order included — is deterministic run to run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"
#include "farm_printers.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using farm::Farm;
using farm::FarmOptions;
using farm::JobSpec;
using farm::JobState;
using farm::Policy;

constexpr int kJobs = 200;
constexpr std::size_t kNodes = 64;
constexpr int kCpusPerNode = 2;

JobSpec small_job(int i) {
  JobSpec j;
  j.name = "stress-" + std::to_string(i);
  sim::ScenarioParams p;
  p.systems = 1;
  p.particles_per_system = 120 + static_cast<std::size_t>(i % 5) * 40;
  p.frames = 2 + static_cast<std::uint32_t>(i % 3);
  j.scene = (i % 2 == 0) ? sim::make_fountain_scene(p)
                         : sim::make_snow_scene(p);
  j.settings.ncalc = 1 + i % 2;  // worlds of 3 and 4 ranks
  j.settings.frames = p.frames;
  j.settings.seed = 1000u + static_cast<std::uint64_t>(i);
  j.settings.image_width = 32;
  j.settings.image_height = 24;
  // Staggered arrivals exercise the event loop, not just one big batch.
  j.submit_time_s = 0.25 * (i % 8);
  return j;
}

farm::Report run_stress(Policy policy) {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, kCpusPerNode), kNodes);

  FarmOptions o;
  o.policy = policy;
  o.recv_timeout_s = 30.0;
  o.exec_mode = mp::ExecMode::kFibers;  // pinned: stress the fiber core
  // workers_per_job = 0 (auto): dozens of co-scheduled jobs split the
  // machine's worker budget instead of each spawning a full pool.
  o.max_parallel_launches = 16;

  Farm f(spec, o);
  std::vector<farm::JobHandle> handles;
  handles.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) handles.push_back(f.submit(small_job(i)));
  farm::Report rep = f.run();

  // Liveness: every admitted job reached a terminal state, none stranded
  // in the queue and none failed.
  for (auto& h : handles) {
    EXPECT_EQ(h.poll(), JobState::kDone) << h.name();
  }
  EXPECT_EQ(rep.jobs_done, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(rep.jobs_failed, 0u);
  EXPECT_EQ(rep.jobs_cancelled, 0u);
  EXPECT_EQ(rep.completion_order.size(), static_cast<std::size_t>(kJobs));

  // Safety: no node was ever oversubscribed beyond its slot budget.
  EXPECT_EQ(rep.nodes.size(), kNodes);
  for (std::size_t n = 0; n < rep.nodes.size(); ++n) {
    EXPECT_LE(rep.nodes[n].peak_ranks, kCpusPerNode) << "node " << n;
    EXPECT_GE(rep.nodes[n].peak_ranks, 0) << "node " << n;
  }
  return rep;
}

class FarmStress : public ::testing::TestWithParam<Policy> {};

TEST_P(FarmStress, TwoHundredJobsDrainDeterministically) {
  const farm::Report first = run_stress(GetParam());
  const farm::Report second = run_stress(GetParam());

  // Determinism: the farm-level DES replays exactly — completion order,
  // makespan and flow are functions of virtual quantities only.
  EXPECT_EQ(first.completion_order, second.completion_order);
  EXPECT_EQ(first.makespan_s, second.makespan_s);
  EXPECT_EQ(first.total_flow_s, second.total_flow_s);
  ASSERT_EQ(first.nodes.size(), second.nodes.size());
  for (std::size_t n = 0; n < first.nodes.size(); ++n) {
    EXPECT_EQ(first.nodes[n].peak_ranks, second.nodes[n].peak_ranks)
        << "node " << n;
    EXPECT_EQ(first.nodes[n].busy_rank_s, second.nodes[n].busy_rank_s)
        << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, FarmStress,
                         ::testing::Values(Policy::kFifo, Policy::kSjf),
                         farm::policy_test_name);

}  // namespace
}  // namespace psanim
