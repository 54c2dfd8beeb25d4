#include "platform/parse.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>

namespace psanim::platform {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("platform: " + msg);
}

std::string preset_list() {
  std::string out;
  for (const std::string& n : preset_names()) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

double to_double(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  // Non-finite values are refused: describe() could not write them back.
  if (end == v.c_str() || *end != '\0' || !std::isfinite(d)) {
    fail("'" + key + "' expects a finite number, got '" + v + "'");
  }
  return d;
}

/// `d` as a count, range-checked before the cast so an absurd value is an
/// error rather than undefined behaviour or a huge allocation.
std::size_t size_from(const std::string& key, double d) {
  if (!(d >= 0.0 && d <= static_cast<double>(kMaxLinks)) ||
      d != std::floor(d)) {
    fail("'" + key + "' expects an integer in [0, " +
         std::to_string(kMaxLinks) + "]");
  }
  return static_cast<std::size_t>(d);
}

std::size_t to_size(const std::string& key, const std::string& v) {
  return size_from(key, to_double(key, v));
}

net::Interconnect interconnect_from(const std::string& s) {
  if (s == "loopback") return net::Interconnect::kLoopback;
  if (s == "fast-ethernet") return net::Interconnect::kFastEthernet;
  if (s == "gigabit-ethernet") return net::Interconnect::kGigabitEthernet;
  if (s == "myrinet") return net::Interconnect::kMyrinet;
  if (s == "custom") return net::Interconnect::kCustom;
  fail("unknown interconnect '" + s +
       "' (expected loopback, fast-ethernet, gigabit-ethernet, myrinet or "
       "custom)");
}

Link link_from(net::Interconnect ic) {
  const net::LinkModel m = net::LinkModel::preset(ic);
  Link l;
  l.kind = m.kind;
  l.latency_s = m.latency_s;
  l.bandwidth_bps = m.bandwidth_bps;
  return l;
}

// ---------------------------------------------------------------- presets

Platform preset_crossbar(std::size_t n) {
  return Platform::crossbar(n, link_from(net::Interconnect::kFastEthernet));
}

Platform preset_fattree(std::size_t n, std::size_t uplinks) {
  return Platform::fat_tree(n, /*hosts_per_edge=*/8, uplinks,
                            link_from(net::Interconnect::kFastEthernet),
                            link_from(net::Interconnect::kGigabitEthernet));
}

Platform preset_dragonfly(std::size_t n) {
  const std::size_t routers = 4, hosts_per_router = 4;
  const std::size_t per_group = routers * hosts_per_router;
  std::size_t groups = (n + per_group - 1) / per_group;
  if (groups < 2) groups = 2;
  Link local = link_from(net::Interconnect::kGigabitEthernet);
  local.latency_s = 20e-6;
  Link global = link_from(net::Interconnect::kGigabitEthernet);
  global.latency_s = 100e-6;
  return Platform::dragonfly(n, groups, routers, hosts_per_router,
                             link_from(net::Interconnect::kFastEthernet),
                             local, global);
}

Platform preset_wan2(std::size_t n) {
  if (n < 2) fail("preset 'wan2' needs at least 2 nodes, got " +
                  std::to_string(n));
  const std::size_t n1 = (n + 1) / 2;
  std::vector<Platform> sites;
  sites.push_back(preset_crossbar(n1));
  sites.push_back(preset_crossbar(n - n1));
  Link wan;  // ~T3-class uplink: long haul latency, 2.5 MB/s payload
  wan.kind = net::Interconnect::kCustom;
  wan.latency_s = 30e-3;
  wan.bandwidth_bps = 2.5e6;
  Platform p = Platform::wan(std::move(sites), wan);
  p.name = "wan2";
  return p;
}

// ----------------------------------------------------------------- DSL

using KvList = std::vector<std::pair<std::string, std::string>>;

KvList split_kv(const std::string& body, const std::string& kind) {
  KvList out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string item = body.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      fail("'" + kind + "' segment: expected key=value, got '" + item + "'");
    }
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return out;
}

DiskModel parse_disk(const std::string& body) {
  if (body == "none" || body.empty()) return DiskModel::none();
  if (body == "scratch") return DiskModel::scratch_hdd();
  if (body == "nfs") return DiskModel::nfs();
  if (body.rfind("pfs", 0) == 0 && body.size() > 3) {
    return DiskModel::pfs(
        static_cast<int>(to_size("disk stripes", body.substr(3))));
  }
  DiskModel d;
  for (const auto& [k, v] : split_kv(body, "disk")) {
    if (k == "read") d.read_bps = to_double(k, v);
    else if (k == "write") d.write_bps = to_double(k, v);
    else if (k == "seek") d.seek_s = to_double(k, v);
    else fail("disk segment: unknown key '" + k +
              "' (expected read, write, seek, or a preset none|scratch|nfs|"
              "pfs<stripes>)");
  }
  return d;
}

Platform parse_dsl_topo(const std::string& kind, const std::string& body,
                        std::size_t nodes) {
  const KvList kvs = split_kv(body, kind);
  Link host = link_from(net::Interconnect::kFastEthernet);
  auto common = [&](const std::string& k, const std::string& v) {
    if (k == "link") { host = link_from(interconnect_from(v)); }
    else if (k == "bw") { host.bandwidth_bps = to_double(k, v); }
    else if (k == "latency") { host.latency_s = to_double(k, v); }
    else return false;
    return true;
  };

  if (kind == "crossbar") {
    double backplane = 0.0;
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "backplane") backplane = to_double(k, v);
      else fail("crossbar: unknown key '" + k +
                "' (expected link, bw, latency, backplane)");
    }
    return Platform::crossbar(nodes, host, backplane);
  }
  if (kind == "fattree") {
    std::size_t hpe = 8, up = 2;
    Link uplink = link_from(net::Interconnect::kGigabitEthernet);
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "hosts_per_edge") hpe = to_size(k, v);
      else if (k == "uplinks") up = to_size(k, v);
      else if (k == "up_bw") uplink.bandwidth_bps = to_double(k, v);
      else if (k == "up_latency") uplink.latency_s = to_double(k, v);
      else fail("fattree: unknown key '" + k +
                "' (expected link, bw, latency, hosts_per_edge, uplinks, "
                "up_bw, up_latency)");
    }
    return Platform::fat_tree(nodes, hpe, up, host, uplink);
  }
  if (kind == "dragonfly") {
    std::size_t groups = 0, routers = 4, hpr = 4;
    Link local = link_from(net::Interconnect::kGigabitEthernet);
    local.latency_s = 20e-6;
    Link global = link_from(net::Interconnect::kGigabitEthernet);
    global.latency_s = 100e-6;
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "groups") groups = to_size(k, v);
      else if (k == "routers") routers = to_size(k, v);
      else if (k == "hosts_per_router") hpr = to_size(k, v);
      else if (k == "local_bw") local.bandwidth_bps = to_double(k, v);
      else if (k == "local_latency") local.latency_s = to_double(k, v);
      else if (k == "global_bw") global.bandwidth_bps = to_double(k, v);
      else if (k == "global_latency") global.latency_s = to_double(k, v);
      else fail("dragonfly: unknown key '" + k +
                "' (expected link, bw, latency, groups, routers, "
                "hosts_per_router, local_bw/latency, global_bw/latency)");
    }
    if (groups == 0) {
      const std::size_t per_group = routers * hpr;
      if (per_group == 0) fail("dragonfly: routers and hosts_per_router must be >= 1");
      groups = (nodes + per_group - 1) / per_group;
      if (groups < 2) groups = 2;
    }
    return Platform::dragonfly(nodes, groups, routers, hpr, host, local,
                               global);
  }
  if (kind == "wan") {
    std::size_t nsites = 2;
    Link wan;
    wan.kind = net::Interconnect::kCustom;
    wan.latency_s = 30e-3;
    wan.bandwidth_bps = 2.5e6;
    for (const auto& [k, v] : kvs) {
      if (common(k, v)) continue;
      if (k == "sites") nsites = to_size(k, v);
      else if (k == "wan_bw") wan.bandwidth_bps = to_double(k, v);
      else if (k == "wan_latency") wan.latency_s = to_double(k, v);
      else fail("wan: unknown key '" + k +
                "' (expected link, bw, latency, sites, wan_bw, wan_latency)");
    }
    if (nsites == 0 || nsites > nodes) {
      fail("wan: sites must be in [1, nodes]; got sites=" +
           std::to_string(nsites) + " for " + std::to_string(nodes) +
           " nodes");
    }
    std::vector<Platform> sites;
    std::size_t left = nodes;
    for (std::size_t s = 0; s < nsites; ++s) {
      const std::size_t take = (left + (nsites - s) - 1) / (nsites - s);
      sites.push_back(Platform::crossbar(take, host));
      left -= take;
    }
    return Platform::wan(std::move(sites), wan);
  }
  fail("unknown topology kind '" + kind +
       "' (expected crossbar, fattree, dragonfly or wan; presets: " +
       preset_list() + ")");
}

// --------------------------------------------------------- JSON subset

// Minimal recursive-descent parser for the JSON Platform::describe()
// emits (objects, arrays, strings without escapes, numbers, booleans).
// Nesting is capped well above describe()'s depth of five, so a hostile
// description cannot exhaust the stack.
struct Json {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) fail("JSON description missing key '" + key + "'");
    return it->second;
  }
  const Json* find(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  double as_num(const std::string& key) const {
    const Json& j = at(key);
    if (j.type != Type::kNum) fail("JSON key '" + key + "' is not a number");
    return j.num;
  }
  std::size_t as_size(const std::string& key) const {
    return size_from(key, as_num(key));
  }
  const std::string& as_str(const std::string& key) const {
    const Json& j = at(key);
    if (j.type != Type::kStr) fail("JSON key '" + key + "' is not a string");
    return j.str;
  }
};

struct JsonParser {
  static constexpr int kMaxDepth = 32;
  const std::string& s;
  std::size_t pos = 0;
  int depth = 0;

  void skip_ws() {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
  }
  char peek() {
    skip_ws();
    if (pos >= s.size()) fail("JSON description ends unexpectedly");
    return s[pos];
  }
  void expect(char c) {
    if (peek() != c) {
      fail(std::string("JSON: expected '") + c + "' at offset " +
           std::to_string(pos) + ", got '" + s[pos] + "'");
    }
    ++pos;
  }

  Json parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) {
        fail("JSON: nesting deeper than " + std::to_string(kMaxDepth) +
             " levels");
      }
      ++depth;
      Json j = c == '{' ? parse_object() : parse_array();
      --depth;
      return j;
    }
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json j;
    j.type = Json::Type::kObj;
    if (peek() == '}') { ++pos; return j; }
    for (;;) {
      Json key = parse_string();
      expect(':');
      j.obj.emplace(std::move(key.str), parse_value());
      if (peek() == ',') { ++pos; continue; }
      expect('}');
      return j;
    }
  }

  Json parse_array() {
    expect('[');
    Json j;
    j.type = Json::Type::kArr;
    if (peek() == ']') { ++pos; return j; }
    for (;;) {
      j.arr.push_back(parse_value());
      if (peek() == ',') { ++pos; continue; }
      expect(']');
      return j;
    }
  }

  Json parse_string() {
    expect('"');
    Json j;
    j.type = Json::Type::kStr;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') fail("JSON: string escapes are not supported");
      j.str += s[pos++];
    }
    if (pos >= s.size()) fail("JSON: unterminated string");
    ++pos;
    return j;
  }

  Json parse_bool() {
    Json j;
    j.type = Json::Type::kBool;
    if (s.compare(pos, 4, "true") == 0) { j.b = true; pos += 4; return j; }
    if (s.compare(pos, 5, "false") == 0) { j.b = false; pos += 5; return j; }
    fail("JSON: bad literal at offset " + std::to_string(pos));
  }

  Json parse_number() {
    const std::size_t start = pos;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) || s[pos] == '-' ||
            s[pos] == '+' || s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) fail("JSON: bad value at offset " + std::to_string(pos));
    Json j;
    j.type = Json::Type::kNum;
    j.num = to_double("number", s.substr(start, pos - start));
    return j;
  }
};

Link json_link(const Json& j) {
  Link l;
  l.kind = interconnect_from(j.as_str("kind"));
  l.latency_s = j.as_num("latency_s");
  l.bandwidth_bps = j.as_num("bandwidth_bps");
  if (const Json* sh = j.find("shared")) {
    if (sh->type != Json::Type::kBool) fail("JSON key 'shared' is not a bool");
    l.shared = sh->b;
  }
  return l;
}

Platform json_leaf(const Json& z) {
  const std::string& kind = z.as_str("kind");
  const std::size_t n = z.as_size("nodes");
  const Link host = json_link(z.at("link"));
  if (kind == "crossbar") {
    return Platform::crossbar(n, host, z.as_num("backplane_bps"));
  }
  if (kind == "fattree") {
    return Platform::fat_tree(n, z.as_size("hosts_per_edge"),
                              z.as_size("uplinks"), host,
                              json_link(z.at("uplink")));
  }
  if (kind == "dragonfly") {
    return Platform::dragonfly(n, z.as_size("groups"), z.as_size("routers"),
                               z.as_size("hosts_per_router"), host,
                               json_link(z.at("local")),
                               json_link(z.at("global")));
  }
  fail("JSON zone kind '" + kind + "' is not a leaf topology");
}

Platform parse_json(const std::string& desc) {
  JsonParser p{desc};
  const Json root = p.parse_value();
  p.skip_ws();
  if (p.pos != desc.size()) {
    fail("JSON: trailing characters after description");
  }
  if (root.type != Json::Type::kObj) fail("JSON description must be an object");
  const Json& zone = root.at("zone");
  Platform out;
  if (zone.as_str("kind") == "wan") {
    const Link uplink = json_link(zone.at("uplink"));
    const Json& sites = zone.at("sites");
    if (sites.type != Json::Type::kArr || sites.arr.empty()) {
      fail("JSON wan zone needs a non-empty 'sites' array");
    }
    std::vector<Platform> leaves;
    for (const Json& site : sites.arr) leaves.push_back(json_leaf(site));
    out = Platform::wan(std::move(leaves), uplink);
  } else {
    out = json_leaf(zone);
  }
  out.name = root.as_str("name");
  if (const Json* d = root.find("disk")) {
    out.disk.read_bps = d->as_num("read_bps");
    out.disk.write_bps = d->as_num("write_bps");
    out.disk.seek_s = d->as_num("seek_s");
  }
  return out;
}

}  // namespace

bool is_flat(const std::string& desc) {
  return desc.empty() || desc == "flat";
}

std::vector<std::string> preset_names() {
  return {"crossbar", "fattree", "fattree-slim", "dragonfly", "wan2"};
}

Platform parse(const std::string& desc, std::size_t nodes) {
  if (is_flat(desc)) {
    fail("'" + desc +
         "' selects the legacy flat model; callers must special-case "
         "is_flat() before parse()");
  }
  std::size_t start = desc.find_first_not_of(" \t\n");
  if (start == std::string::npos) fail("empty description");
  if (desc[start] == '{') {
    Platform p = parse_json(desc);
    if (nodes > 0 && p.node_count() < nodes) {
      fail("description '" + p.name + "' holds " +
           std::to_string(p.node_count()) + " nodes, needs " +
           std::to_string(nodes));
    }
    return p;
  }

  if (nodes == 0) fail("a preset or DSL description needs nodes >= 1");

  // Split off an optional ";disk:..." suffix (any segment order).
  std::string topo;
  DiskModel disk;
  std::size_t pos = 0;
  while (pos < desc.size()) {
    std::size_t semi = desc.find(';', pos);
    if (semi == std::string::npos) semi = desc.size();
    const std::string seg = desc.substr(pos, semi - pos);
    pos = semi + 1;
    if (seg.rfind("disk:", 0) == 0) {
      disk = parse_disk(seg.substr(5));
    } else if (!seg.empty()) {
      if (!topo.empty()) fail("multiple topology segments in '" + desc + "'");
      topo = seg;
    }
  }
  if (topo.empty()) fail("description '" + desc + "' has no topology segment");

  Platform p;
  const std::size_t colon = topo.find(':');
  if (colon == std::string::npos) {
    // Bare name: a preset.
    if (topo == "crossbar") p = preset_crossbar(nodes);
    else if (topo == "fattree") p = preset_fattree(nodes, 4);
    else if (topo == "fattree-slim") p = preset_fattree(nodes, 1);
    else if (topo == "dragonfly") p = preset_dragonfly(nodes);
    else if (topo == "wan2") p = preset_wan2(nodes);
    else fail("unknown platform '" + topo + "' (presets: " + preset_list() +
              "; or a DSL/JSON description — see platform/parse.hpp)");
    if (topo == "fattree-slim") p.name = "fattree-slim";
  } else {
    p = parse_dsl_topo(topo.substr(0, colon), topo.substr(colon + 1), nodes);
  }
  if (!disk.free()) p.disk = disk;
  return p;
}

}  // namespace psanim::platform
