#pragma once

// Platform description loader: turns a cluster spec's platform string
// into a Platform, so specs (and through them run_parallel, the farm and
// the benches) select platforms by name instead of hand-assembling zone
// trees.
//
// Three description forms are accepted:
//
//  1. Named presets, auto-sized to the requested node count — see
//     preset_names(). E.g. "fattree-slim" for 32 nodes builds edge
//     switches of 8 Fast-Ethernet hosts behind a single uplink each.
//  2. A compact DSL: "<kind>:key=val,key=val[;disk:...]", e.g.
//       "crossbar:link=fast-ethernet,backplane=50e6"
//       "fattree:hosts_per_edge=8,uplinks=2,up_bw=110e6"
//       "dragonfly:groups=4,routers=4,hosts_per_router=4"
//       "wan:sites=2,wan_bw=2.5e6,wan_latency=30e-3"
//       "crossbar:link=gigabit-ethernet;disk:scratch"
//     The disk segment takes a preset (none|scratch|nfs|pfs<stripes>) or
//     "read=..,write=..,seek=.." fields.
//  3. The canonical JSON emitted by Platform::describe() (round-trips).
//
// The name "flat" (or the empty string) is special: it selects *no* zone
// platform — the legacy per-pair alpha-beta model — and is handled by the
// sim layer, never by parse().

#include <cstddef>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace psanim::platform {

/// True when `desc` selects the legacy flat model (empty or "flat"):
/// no zone tree, no contention, bit-identical to the pre-platform code.
bool is_flat(const std::string& desc);

/// Built-in preset names (excluding "flat").
std::vector<std::string> preset_names();

/// Build a platform from `desc` sized for at least `nodes` nodes.
/// Presets and DSL topologies are auto-sized to exactly `nodes`; a JSON
/// description carries its own size, which must cover `nodes`. Throws
/// std::invalid_argument (message prefixed "platform:") for unknown
/// names, malformed descriptions, platforms too small, or sizes beyond
/// kMaxNodes/kMaxLinks — the message lists the valid presets so a typo is
/// actionable.
Platform parse(const std::string& desc, std::size_t nodes);

}  // namespace psanim::platform
