#pragma once

// Cost model: converts model work (particles touched, messages moved) into
// virtual seconds.
//
// Per-particle costs are expressed in seconds *on the reference machine*
// (E800, rate 1.0) and divided by the executing rank's effective rate.
// Constants are calibrated to 2005-era scalar float code (tens of
// nanoseconds per particle-action on a 1 GHz Pentium III); the experiment
// shapes depend only on their ratios to the network costs.

#include <cstddef>

#include "cluster/placement.hpp"
#include "mp/communicator.hpp"
#include "net/network_model.hpp"
#include "platform/platform.hpp"

namespace psanim::cluster {

struct CostModel {
  // --- per-particle compute costs on the reference machine (seconds) ---
  /// Applying one action to one particle. Calibrated high (scalar 2005
  /// code: collision tests, RNG, sqrt per particle on a 1 GHz PIII) so the
  /// compute/comm ratio matches the paper's regimes; see EXPERIMENTS.md
  /// "Calibration".
  double action_cost = 400e-9;
  double create_cost = 300e-9;  ///< manager generates one particle (RNG heavy)
  double move_cost = 40e-9;     ///< integrate one particle position
  double render_cost = 35e-9;   ///< image generator splats one particle
  double collide_pair_cost = 35e-9;  ///< one particle-pair collision test
  double sort_cost = 25e-9;     ///< per element per log2 level when ordering
  /// Per-particle marshaling: copying a record into/out of communication
  /// buffers plus the bucket bookkeeping around it. Dominated by the
  /// every-particle-every-frame ship to the image generator; this is the
  /// parallel version's per-particle tax over the sequential code and the
  /// main reason measured efficiencies sit near the paper's ~50%.
  double pack_cost = 900e-9;

  /// Fixed per-frame bookkeeping charged once per process per frame.
  double frame_overhead_s = 200e-6;

  /// Throughput factor for each of two processes sharing a dual node's
  /// memory bus (the paper's nodes are dual PIII with one shared FSB).
  double smp_contention = 0.85;

  // --- host-side messaging costs, per interconnect ---
  /// Per-message CPU overhead on the reference machine (protocol stack:
  /// TCP for Ethernet, user-level GM for Myrinet, wakeups for loopback).
  double host_overhead_s(net::Interconnect ic) const;
  /// CPU-side copy bandwidth (bytes/s) on the reference machine.
  double host_bandwidth_bps(net::Interconnect ic) const;

  /// Compute seconds for `n` particles at `per_particle` reference cost on
  /// a rank running at `rate`.
  double compute_s(double per_particle, std::size_t n, double rate) const {
    return per_particle * static_cast<double>(n) / rate;
  }

  /// n*log2(n) ordering cost (donation selection in the load balancer).
  double sort_s(std::size_t n, double rate) const;
};

/// Build the message-cost function the mp runtime uses. Wire time per
/// node pair comes from `plat`'s route (additive latency, bottleneck
/// bandwidth) when one is given, else from the flat model's resolved link
/// between the two nodes' NICs; same-node traffic is loopback either way.
/// Host CPU overheads are charged by each endpoint's link kind and scaled
/// by each rank's effective rate. `plat` is captured by pointer and
/// must outlive the returned closure; shared-link *contention* is the
/// Fabric's job, not the cost function's.
mp::LinkCostFn make_link_cost_fn(const ClusterSpec& spec,
                                 const Placement& placement,
                                 const CostModel& cost,
                                 const platform::Platform* plat = nullptr);

}  // namespace psanim::cluster
