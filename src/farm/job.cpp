#include "farm/job.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace psanim::farm {

namespace {

/// Enum names by value (every enum here counts densely from 0).
template <typename E, std::size_t N>
std::string name_of(E e, const char* const (&names)[N]) {
  const auto i = static_cast<std::size_t>(e);
  return i < N ? names[i] : "?";
}

}  // namespace

std::string to_string(Policy p) {
  return name_of(p, {"fifo", "sjf", "priority", "fair-share"});
}

std::string to_string(VictimSelection v) {
  return name_of(v, {"least-deserving", "cost-aware"});
}

std::string to_string(JobState s) {
  return name_of(s, {"queued", "running", "preempting", "suspended", "done",
                     "failed", "cancelled"});
}

double estimate_virtual_cost(const JobSpec& spec) {
  if (spec.sjf_cost_hint > 0.0) return spec.sjf_cost_hint;
  // Shape proxy: total frame-system passes. Good enough to rank "30-frame
  // clip" under "600-frame sequence"; tenants with better knowledge pass a
  // hint (e.g. a measured makespan of a previous run of the same scene).
  return static_cast<double>(spec.settings.frames) *
         static_cast<double>(std::max<std::size_t>(spec.scene.systems.size(),
                                                   1));
}

Assignment assign_slots(const cluster::ClusterSpec& shared,
                        const std::vector<int>& free_slots, int world) {
  if (free_slots.size() != shared.node_count()) {
    throw std::invalid_argument(
        "assign_slots: free_slots must have one entry per shared node");
  }
  if (world < 1) {
    throw std::invalid_argument("assign_slots: world must be >= 1");
  }
  // Fastest-first scan order: rate desc, then index for determinism.
  std::vector<std::size_t> order(shared.node_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ra = shared.node_rate(a);
    const double rb = shared.node_rate(b);
    if (ra != rb) return ra > rb;
    return a < b;
  });

  Assignment a;
  int remaining = world;
  for (const std::size_t n : order) {
    if (remaining == 0) break;
    const int take = std::min(remaining, free_slots[n]);
    if (take <= 0) continue;
    a.shared_nodes.push_back(static_cast<int>(n));
    a.ranks_per_node.push_back(take);
    a.sub_spec.nodes.push_back(shared.nodes[n]);
    remaining -= take;
  }
  if (remaining > 0) {
    throw std::invalid_argument(
        "assign_slots: not enough free CPU slots for " +
        std::to_string(world) + " ranks (short by " +
        std::to_string(remaining) + ")");
  }
  a.sub_spec.preferred = shared.preferred;
  a.sub_spec.compiler = shared.compiler;
  a.sub_spec.platform = shared.platform;
  // Ranks fill each granted node's slots in turn: rank 0 (manager) on the
  // fastest node, the image generator right after it, calculators onward.
  for (std::size_t i = 0; i < a.ranks_per_node.size(); ++i) {
    for (int s = 0; s < a.ranks_per_node[i]; ++s) {
      a.placement.node_of_rank.push_back(static_cast<int>(i));
    }
  }
  return a;
}

namespace {

/// Same hardware as far as the rate model and memory sizing care: rank
/// rates depend on (cpu rate under the spec compiler, cpus,
/// smp_contention), so two nodes agreeing on these (and name/ram, for
/// honesty) are interchangeable hosts for a resumed rank.
bool same_node_type(const cluster::ClusterSpec& spec, std::size_t a,
                    const cluster::NodeType& want, double want_rate) {
  const cluster::NodeType& have = spec.nodes[a];
  return have.name == want.name && have.cpus == want.cpus &&
         have.ram_mb == want.ram_mb && spec.node_rate(a) == want_rate;
}

}  // namespace

std::optional<Assignment> match_assignment(const cluster::ClusterSpec& shared,
                                           const std::vector<int>& free_slots,
                                           const Assignment& original) {
  if (free_slots.size() != shared.node_count()) {
    throw std::invalid_argument(
        "match_assignment: free_slots must have one entry per shared node");
  }
  const std::size_t k = original.shared_nodes.size();
  // Largest rank counts first: they are the hardest to place, and a
  // fixed order keeps the matching deterministic.
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (original.ranks_per_node[a] != original.ranks_per_node[b]) {
      return original.ranks_per_node[a] > original.ranks_per_node[b];
    }
    return a < b;
  });

  std::vector<int> remaining = free_slots;
  std::vector<int> matched(k, -1);
  for (const std::size_t pos : order) {
    const int need = original.ranks_per_node[pos];
    const cluster::NodeType& want = original.sub_spec.nodes[pos];
    const double want_rate =
        want.cpu.rate(original.sub_spec.compiler);
    int best = -1;
    for (std::size_t n = 0; n < shared.node_count(); ++n) {
      if (remaining[n] < need) continue;
      if (!same_node_type(shared, n, want, want_rate)) continue;
      // Best fit: tightest free count keeps big nodes open for big
      // positions of *other* jobs; index breaks ties.
      if (best < 0 ||
          remaining[n] < remaining[static_cast<std::size_t>(best)]) {
        best = static_cast<int>(n);
      }
    }
    if (best < 0) return std::nullopt;
    matched[pos] = best;
    remaining[static_cast<std::size_t>(best)] -= need;
  }

  Assignment a = original;
  a.shared_nodes.assign(matched.begin(), matched.end());
  return a;
}

}  // namespace psanim::farm
