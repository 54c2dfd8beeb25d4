#pragma once

// Topology-aware platform model (ROADMAP item 3, in the spirit of
// SimGrid's zone architecture).
//
// `psanim::net` models every node pair as a private alpha-beta pipe; that
// is the fidelity the paper's own analysis uses, but it cannot answer
// capacity questions — a 512-node farm's frames/sec depends on which
// *shared* links its traffic funnels through. A `Platform` is a small
// zone tree: leaf zones lay nodes out under a concrete interconnect
// topology (cluster crossbar, k-ary fat-tree, dragonfly) and an optional
// WAN root zone joins leaf sites over uplinks. Routing maps a
// (src node, dst node) pair to the *ordered list of links traversed*,
// replacing the flat model's single resolved hop:
//
//   crossbar   host_a -> [backplane] -> host_b
//   fat-tree   host_a -> edge uplink_a -> edge uplink_b -> host_b
//   dragonfly  term_a -> local_a -> global(g_a,g_b) -> local_b -> term_b
//   wan        egress(site_a) -> wan uplink_a -> wan uplink_b -> ingress
//
// A transfer's base wire time over a route is latency-additive and
// bottleneck-limited (`sum(latency) + bytes / min(bandwidth)` — the
// store-and-forward pipeline approximation). Shared-link *contention* on
// top of that lives in fabric.hpp.
//
// Node indices are global across the platform and line up with
// `cluster::ClusterSpec` node indices; a platform must be built for at
// least as many nodes as the spec it serves.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/network_model.hpp"
#include "platform/disk.hpp"

namespace psanim::platform {

using LinkId = std::uint32_t;
inline constexpr LinkId kNoLink = 0xffffffffu;

/// Size budget every builder enforces (std::invalid_argument beyond it),
/// so no description, however absurd its counts, can ask for an
/// unbounded allocation.
inline constexpr std::size_t kMaxNodes = std::size_t{1} << 16;
inline constexpr std::size_t kMaxLinks = std::size_t{1} << 20;

/// One physical link. `shared = true` links are fluid resources —
/// concurrent transfers queue behind each other (see fabric.hpp);
/// `shared = false` links are fat pipes (every transfer gets the full
/// bandwidth, e.g. an ideal crossbar backplane).
struct Link {
  std::string name;
  net::Interconnect kind = net::Interconnect::kCustom;
  double latency_s = 0.0;
  double bandwidth_bps = 1e9;
  bool shared = true;
};

enum class ZoneKind : std::uint8_t { kCrossbar, kFatTree, kDragonfly, kWan };

std::string to_string(ZoneKind k);

/// One zone of the platform tree. Leaf zones own the contiguous global
/// node range [first_node, first_node + nodes); a kWan root composes leaf
/// zones as children, each reachable over its own `wan_uplink`.
struct Zone {
  ZoneKind kind = ZoneKind::kCrossbar;
  std::size_t first_node = 0;
  std::size_t nodes = 0;

  // --- topology parameters (meaning depends on kind) ---
  std::size_t hosts_per_edge = 4;    ///< fat-tree: hosts under one edge switch
  std::size_t uplinks = 2;           ///< fat-tree: uplinks per edge switch
  std::size_t groups = 2;            ///< dragonfly: number of groups
  std::size_t routers = 2;           ///< dragonfly: routers per group
  std::size_t hosts_per_router = 2;  ///< dragonfly: hosts per router

  // --- links owned by this zone (indices into Platform::links) ---
  std::vector<LinkId> host_links;    ///< one per node (every leaf kind)
  std::vector<LinkId> up_links;      ///< fat-tree edge uplinks / dragonfly locals
  std::vector<LinkId> global_links;  ///< dragonfly inter-group, pair-indexed
  LinkId backplane = kNoLink;        ///< crossbar switch fabric (optional)
  LinkId wan_uplink = kNoLink;       ///< set on children of a kWan root

  std::vector<Zone> children;  ///< kWan only; leaf zones otherwise empty

  bool contains(std::size_t node) const {
    return node >= first_node && node < first_node + nodes;
  }
};

struct Platform {
  std::string name;
  std::vector<Link> links;
  Zone root;
  /// Every node's checkpoint storage (the description's `;disk:` clause);
  /// free when the description names none.
  DiskModel disk;

  std::size_t node_count() const { return root.nodes; }
  std::size_t link_count() const { return links.size(); }
  const Link& link(LinkId id) const {
    return links.at(static_cast<std::size_t>(id));
  }

  /// Ordered links the pair (src, dst) traverses; empty when src == dst
  /// (same-node traffic is loopback and never touches the fabric).
  /// Appends into `out` (cleared first) so hot paths can reuse a scratch
  /// vector. Throws std::out_of_range for nodes outside the platform.
  void route(std::size_t src, std::size_t dst, std::vector<LinkId>& out) const;
  std::vector<LinkId> route(std::size_t src, std::size_t dst) const {
    std::vector<LinkId> out;
    route(src, dst, out);
    return out;
  }

  /// Base wire characteristics of a route: additive latency, bottleneck
  /// bandwidth, and the interconnect kinds of the two endpoint host links
  /// (the cluster layer charges per-message host CPU overhead by kind).
  /// Same-node traffic gets the loopback link's characteristics.
  struct Wire {
    double latency_s = 0.0;
    double bottleneck_bps = 1e18;
    net::Interconnect src_kind = net::Interconnect::kCustom;
    net::Interconnect dst_kind = net::Interconnect::kCustom;
  };
  Wire wire(std::size_t src, std::size_t dst) const;

  /// Canonical JSON description; platform::parse() round-trips it.
  std::string describe() const;

  // --- builders (parse.cpp layers the text/JSON loader on these) ---
  /// `n` hosts on one switch; `backplane_bps > 0` adds a shared fabric
  /// link every pair crosses (models switch capacity), 0 = ideal crossbar.
  static Platform crossbar(std::size_t n, const Link& host,
                           double backplane_bps = 0.0);
  /// Two-level k-ary fat-tree: edge switches with `hosts_per_edge` hosts
  /// and `uplinks` parallel uplinks each into an ideal core. Same-edge
  /// pairs stay under the switch; cross-edge pairs pay both uplinks.
  static Platform fat_tree(std::size_t n, std::size_t hosts_per_edge,
                           std::size_t uplinks, const Link& host,
                           const Link& up);
  /// Dragonfly: `groups` (>= 2) groups of `routers` routers with
  /// `hosts_per_router` hosts each; minimal routing (terminal, local,
  /// one global hop between groups).
  static Platform dragonfly(std::size_t n, std::size_t groups,
                            std::size_t routers, std::size_t hosts_per_router,
                            const Link& term, const Link& local,
                            const Link& global);
  /// Root zone joining leaf `sites` over per-site WAN uplinks; global node
  /// indices run site by site in order.
  static Platform wan(std::vector<Platform> sites, const Link& wan_link);
};

}  // namespace psanim::platform
