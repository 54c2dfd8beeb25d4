#pragma once

// Flight-recorder codec: the bounded ring of recent records a rank carries
// into each checkpoint, and back out of a restore.
//
// The encoding is self-contained: label ids in the global LabelTable are
// interning-order-dependent (thread schedules differ run to run), so the
// ring is written with a local string table and re-interned on decode.
// That makes a snapshot byte-deterministic given the same ring contents,
// and lets a *different* run (restart-into-new-run recovery) adopt the
// records into its own table.

#include <cstddef>
#include <vector>

#include "mp/message.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace psanim::obs {

/// Serialize `rec`'s flight ring (oldest first) into `w`, resolving label
/// ids through `labels`.
void encode_ring(mp::Writer& w, const RankRecorder& rec,
                 const LabelTable& labels);

/// Decode a ring section encoded by encode_ring, re-interning every label
/// into `labels`. Records come back oldest first with live label ids.
/// Throws mp::DecodeError for a malformed section: a truncation, a label
/// or record count the remaining bytes cannot hold, a label index out of
/// range, a kind above kFlowRecv, or a replayed flag other than 0 or 1.
std::vector<SpanRecord> decode_ring(mp::Reader& r, LabelTable& labels);

}  // namespace psanim::obs
