#include "platform/platform.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace psanim::platform {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string link_json(const Link& l) {
  return "{\"kind\":\"" + net::to_string(l.kind) +
         "\",\"latency_s\":" + fmt(l.latency_s) +
         ",\"bandwidth_bps\":" + fmt(l.bandwidth_bps) +
         ",\"shared\":" + (l.shared ? "true" : "false") + "}";
}

/// Reject a `kind` platform of `nodes` nodes and `links` links beyond the
/// size budget, before anything is built. Counts arrive as doubles so the
/// products that form them cannot overflow.
void check_budget(const char* kind, double nodes, double links) {
  if (nodes > static_cast<double>(kMaxNodes) ||
      links > static_cast<double>(kMaxLinks)) {
    throw std::invalid_argument(
        std::string("platform: ") + kind + " of " + fmt(nodes) +
        " nodes and " + fmt(links) +
        " links exceeds the size budget (" + std::to_string(kMaxNodes) +
        " nodes, " + std::to_string(kMaxLinks) + " links)");
  }
}

double as_count(std::size_t n) { return static_cast<double>(n); }

/// Unordered-pair index for dragonfly global links, i < j among g groups.
std::size_t pair_index(std::size_t i, std::size_t j, std::size_t g) {
  if (i > j) std::swap(i, j);
  return i * (2 * g - i - 1) / 2 + (j - i - 1);
}

}  // namespace

std::string to_string(ZoneKind k) {
  switch (k) {
    case ZoneKind::kCrossbar: return "crossbar";
    case ZoneKind::kFatTree: return "fattree";
    case ZoneKind::kDragonfly: return "dragonfly";
    case ZoneKind::kWan: return "wan";
  }
  return "?";
}

Platform Platform::crossbar(std::size_t n, const Link& host,
                            double backplane_bps) {
  if (n == 0) {
    throw std::invalid_argument("platform: crossbar needs at least one node");
  }
  check_budget("crossbar", as_count(n), as_count(n) + 1);
  Platform p;
  p.name = "crossbar";
  p.root.kind = ZoneKind::kCrossbar;
  p.root.nodes = n;
  p.root.host_links.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Link l = host;
    l.name = "host" + std::to_string(i);
    p.root.host_links.push_back(static_cast<LinkId>(p.links.size()));
    p.links.push_back(std::move(l));
  }
  if (backplane_bps > 0.0) {
    Link bp = host;
    bp.name = "xbar";
    bp.bandwidth_bps = backplane_bps;
    bp.latency_s = 0.0;  // fabric crossing; port latency is the host link's
    p.root.backplane = static_cast<LinkId>(p.links.size());
    p.links.push_back(std::move(bp));
  }
  return p;
}

Platform Platform::fat_tree(std::size_t n, std::size_t hosts_per_edge,
                            std::size_t uplinks, const Link& host,
                            const Link& up) {
  if (n == 0 || hosts_per_edge == 0 || uplinks == 0) {
    throw std::invalid_argument(
        "platform: fat-tree needs nodes >= 1, hosts_per_edge >= 1 and "
        "uplinks >= 1");
  }
  const std::size_t edges = (n + hosts_per_edge - 1) / hosts_per_edge;
  check_budget("fat-tree", as_count(n),
               as_count(n) + as_count(edges) * as_count(uplinks));
  Platform p;
  p.name = "fattree";
  p.root.kind = ZoneKind::kFatTree;
  p.root.nodes = n;
  p.root.hosts_per_edge = hosts_per_edge;
  p.root.uplinks = uplinks;
  for (std::size_t i = 0; i < n; ++i) {
    Link l = host;
    l.name = "host" + std::to_string(i);
    p.root.host_links.push_back(static_cast<LinkId>(p.links.size()));
    p.links.push_back(std::move(l));
  }
  for (std::size_t e = 0; e < edges; ++e) {
    for (std::size_t u = 0; u < uplinks; ++u) {
      Link l = up;
      l.name = "edge" + std::to_string(e) + ".up" + std::to_string(u);
      p.root.up_links.push_back(static_cast<LinkId>(p.links.size()));
      p.links.push_back(std::move(l));
    }
  }
  return p;
}

Platform Platform::dragonfly(std::size_t n, std::size_t groups,
                             std::size_t routers,
                             std::size_t hosts_per_router, const Link& term,
                             const Link& local, const Link& global) {
  if (n == 0 || groups < 2 || routers == 0 || hosts_per_router == 0) {
    throw std::invalid_argument(
        "platform: dragonfly needs nodes, routers and hosts_per_router "
        ">= 1 and groups >= 2 (one group has no global links; use a "
        "fattree)");
  }
  const double g = as_count(groups);
  check_budget("dragonfly", as_count(n),
               as_count(n) + g * as_count(routers) + g * (g - 1) / 2);
  if (g * as_count(routers) * as_count(hosts_per_router) < as_count(n)) {
    throw std::invalid_argument(
        "platform: dragonfly " + std::to_string(groups) + "x" +
        std::to_string(routers) + "x" + std::to_string(hosts_per_router) +
        " holds " + std::to_string(groups * routers * hosts_per_router) +
        " nodes, needs " + std::to_string(n));
  }
  Platform p;
  p.name = "dragonfly";
  p.root.kind = ZoneKind::kDragonfly;
  p.root.nodes = n;
  p.root.groups = groups;
  p.root.routers = routers;
  p.root.hosts_per_router = hosts_per_router;
  for (std::size_t i = 0; i < n; ++i) {
    Link l = term;
    l.name = "term" + std::to_string(i);
    p.root.host_links.push_back(static_cast<LinkId>(p.links.size()));
    p.links.push_back(std::move(l));
  }
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t r = 0; r < routers; ++r) {
      Link l = local;
      l.name = "local.g" + std::to_string(g) + ".r" + std::to_string(r);
      p.root.up_links.push_back(static_cast<LinkId>(p.links.size()));
      p.links.push_back(std::move(l));
    }
  }
  for (std::size_t i = 0; i < groups; ++i) {
    for (std::size_t j = i + 1; j < groups; ++j) {
      Link l = global;
      l.name = "global.g" + std::to_string(i) + "-g" + std::to_string(j);
      p.root.global_links.push_back(static_cast<LinkId>(p.links.size()));
      p.links.push_back(std::move(l));
    }
  }
  return p;
}

Platform Platform::wan(std::vector<Platform> sites, const Link& wan_link) {
  if (sites.empty()) {
    throw std::invalid_argument("platform: wan needs at least one site");
  }
  double nodes = 0, links = 0;
  for (const Platform& site : sites) {
    nodes += as_count(site.node_count());
    links += as_count(site.link_count() + 1);
  }
  check_budget("wan", nodes, links);
  Platform p;
  p.name = "wan";
  p.root.kind = ZoneKind::kWan;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    Platform& site = sites[s];
    if (site.root.kind == ZoneKind::kWan) {
      throw std::invalid_argument(
          "platform: wan sites must be leaf zones (crossbar, fattree or "
          "dragonfly), not nested wan zones");
    }
    const auto link_offset = static_cast<LinkId>(p.links.size());
    for (auto& l : site.links) {
      l.name = "site" + std::to_string(s) + "." + l.name;
      p.links.push_back(std::move(l));
    }
    Zone child = std::move(site.root);
    child.first_node = p.root.nodes;
    for (auto& id : child.host_links) id += link_offset;
    for (auto& id : child.up_links) id += link_offset;
    for (auto& id : child.global_links) id += link_offset;
    if (child.backplane != kNoLink) child.backplane += link_offset;
    Link ul = wan_link;
    ul.name = "site" + std::to_string(s) + ".wan";
    child.wan_uplink = static_cast<LinkId>(p.links.size());
    p.links.push_back(std::move(ul));
    p.root.nodes += child.nodes;
    p.root.children.push_back(std::move(child));
  }
  return p;
}

namespace {

/// Path from node `a` up to the zone's border router, in traversal order.
void egress(const Zone& z, std::size_t a, std::vector<LinkId>& out) {
  const std::size_t la = a - z.first_node;
  switch (z.kind) {
    case ZoneKind::kCrossbar:
      out.push_back(z.host_links[la]);
      if (z.backplane != kNoLink) out.push_back(z.backplane);
      return;
    case ZoneKind::kFatTree: {
      out.push_back(z.host_links[la]);
      const std::size_t e = la / z.hosts_per_edge;
      out.push_back(z.up_links[e * z.uplinks + la % z.uplinks]);
      return;
    }
    case ZoneKind::kDragonfly: {
      out.push_back(z.host_links[la]);
      const std::size_t r = la / z.hosts_per_router;
      const std::size_t g = r / z.routers;
      out.push_back(z.up_links[g * z.routers + r % z.routers]);
      // Group 0 hosts the zone's gateway; other groups pay one global hop.
      if (g != 0) out.push_back(z.global_links[pair_index(0, g, z.groups)]);
      return;
    }
    case ZoneKind::kWan:
      throw std::logic_error("platform: nested wan zones are not supported");
  }
}

/// Mirror of egress: border router down to node `b`, in traversal order.
void ingress(const Zone& z, std::size_t b, std::vector<LinkId>& out) {
  const std::size_t lb = b - z.first_node;
  switch (z.kind) {
    case ZoneKind::kCrossbar:
      if (z.backplane != kNoLink) out.push_back(z.backplane);
      out.push_back(z.host_links[lb]);
      return;
    case ZoneKind::kFatTree: {
      const std::size_t e = lb / z.hosts_per_edge;
      out.push_back(z.up_links[e * z.uplinks + lb % z.uplinks]);
      out.push_back(z.host_links[lb]);
      return;
    }
    case ZoneKind::kDragonfly: {
      const std::size_t r = lb / z.hosts_per_router;
      const std::size_t g = r / z.routers;
      if (g != 0) out.push_back(z.global_links[pair_index(0, g, z.groups)]);
      out.push_back(z.up_links[g * z.routers + r % z.routers]);
      out.push_back(z.host_links[lb]);
      return;
    }
    case ZoneKind::kWan:
      throw std::logic_error("platform: nested wan zones are not supported");
  }
}

void route_leaf(const Zone& z, std::size_t a, std::size_t b,
                std::vector<LinkId>& out) {
  const std::size_t la = a - z.first_node;
  const std::size_t lb = b - z.first_node;
  switch (z.kind) {
    case ZoneKind::kCrossbar:
      out.push_back(z.host_links[la]);
      if (z.backplane != kNoLink) out.push_back(z.backplane);
      out.push_back(z.host_links[lb]);
      return;
    case ZoneKind::kFatTree: {
      out.push_back(z.host_links[la]);
      const std::size_t ea = la / z.hosts_per_edge;
      const std::size_t eb = lb / z.hosts_per_edge;
      if (ea != eb) {
        out.push_back(z.up_links[ea * z.uplinks + la % z.uplinks]);
        out.push_back(z.up_links[eb * z.uplinks + lb % z.uplinks]);
      }
      out.push_back(z.host_links[lb]);
      return;
    }
    case ZoneKind::kDragonfly: {
      out.push_back(z.host_links[la]);
      const std::size_t ra = la / z.hosts_per_router;
      const std::size_t rb = lb / z.hosts_per_router;
      const std::size_t ga = ra / z.routers;
      const std::size_t gb = rb / z.routers;
      if (ra != rb) {
        out.push_back(z.up_links[ga * z.routers + ra % z.routers]);
        if (ga != gb) {
          out.push_back(z.global_links[pair_index(ga, gb, z.groups)]);
        }
        out.push_back(z.up_links[gb * z.routers + rb % z.routers]);
      }
      out.push_back(z.host_links[lb]);
      return;
    }
    case ZoneKind::kWan:
      throw std::logic_error("platform: route_leaf on a wan zone");
  }
}

}  // namespace

void Platform::route(std::size_t src, std::size_t dst,
                     std::vector<LinkId>& out) const {
  out.clear();
  if (src >= root.nodes || dst >= root.nodes) {
    throw std::out_of_range("platform: node " +
                            std::to_string(src >= root.nodes ? src : dst) +
                            " outside platform '" + name + "' (" +
                            std::to_string(root.nodes) + " nodes)");
  }
  if (src == dst) return;
  if (root.kind != ZoneKind::kWan) {
    route_leaf(root, src, dst, out);
    return;
  }
  const Zone* za = nullptr;
  const Zone* zb = nullptr;
  for (const Zone& c : root.children) {
    if (c.contains(src)) za = &c;
    if (c.contains(dst)) zb = &c;
  }
  if (za == zb) {
    route_leaf(*za, src, dst, out);
    return;
  }
  egress(*za, src, out);
  out.push_back(za->wan_uplink);
  out.push_back(zb->wan_uplink);
  ingress(*zb, dst, out);
}

Platform::Wire Platform::wire(std::size_t src, std::size_t dst) const {
  if (src == dst) {
    const auto lb = net::LinkModel::loopback();
    return {lb.latency_s, lb.bandwidth_bps, lb.kind, lb.kind};
  }
  Wire w;
  std::vector<LinkId> r;
  route(src, dst, r);
  for (const LinkId id : r) {
    const Link& l = link(id);
    w.latency_s += l.latency_s;
    if (l.bandwidth_bps < w.bottleneck_bps) w.bottleneck_bps = l.bandwidth_bps;
  }
  w.src_kind = link(r.front()).kind;
  w.dst_kind = link(r.back()).kind;
  return w;
}

namespace {

std::string leaf_json(const Platform& p, const Zone& z) {
  std::string out = "{\"kind\":\"" + to_string(z.kind) + "\"";
  out += ",\"nodes\":" + std::to_string(z.nodes);
  out += ",\"link\":" + link_json(p.link(z.host_links.at(0)));
  switch (z.kind) {
    case ZoneKind::kCrossbar:
      out += ",\"backplane_bps\":" +
             fmt(z.backplane != kNoLink ? p.link(z.backplane).bandwidth_bps
                                        : 0.0);
      break;
    case ZoneKind::kFatTree:
      out += ",\"hosts_per_edge\":" + std::to_string(z.hosts_per_edge);
      out += ",\"uplinks\":" + std::to_string(z.uplinks);
      out += ",\"uplink\":" + link_json(p.link(z.up_links.at(0)));
      break;
    case ZoneKind::kDragonfly:
      out += ",\"groups\":" + std::to_string(z.groups);
      out += ",\"routers\":" + std::to_string(z.routers);
      out += ",\"hosts_per_router\":" + std::to_string(z.hosts_per_router);
      out += ",\"local\":" + link_json(p.link(z.up_links.at(0)));
      out += ",\"global\":" + link_json(p.link(z.global_links.at(0)));
      break;
    case ZoneKind::kWan:
      break;
  }
  out += "}";
  return out;
}

}  // namespace

std::string Platform::describe() const {
  std::string out = "{\"name\":\"" + name + "\"";
  if (!disk.free()) {
    out += ",\"disk\":{\"read_bps\":" + fmt(disk.read_bps) +
           ",\"write_bps\":" + fmt(disk.write_bps) +
           ",\"seek_s\":" + fmt(disk.seek_s) + "}";
  }
  out += ",\"zone\":";
  if (root.kind == ZoneKind::kWan) {
    out += "{\"kind\":\"wan\",\"uplink\":" +
           link_json(link(root.children.at(0).wan_uplink));
    out += ",\"sites\":[";
    for (std::size_t i = 0; i < root.children.size(); ++i) {
      if (i > 0) out += ",";
      out += leaf_json(*this, root.children[i]);
    }
    out += "]}";
  } else {
    out += leaf_json(*this, root);
  }
  out += "}";
  return out;
}

}  // namespace psanim::platform
