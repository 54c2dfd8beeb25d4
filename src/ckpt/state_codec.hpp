#pragma once

// Bit-exact codecs for role state that has no wire codec of its own.
//
// SlicedStore serialization preserves the per-slice layout — not just the
// particle multiset — because slice iteration order decides RNG
// consumption order in the action phase: restoring the concatenated
// snapshot through insert_batch would re-bucket particles and break
// bit-exact replay (Decomposition already has encode/decode; load-balancer
// state goes through LoadBalancer::save_state/load_state).

#include <vector>

#include "mp/message.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "psys/store.hpp"
#include "trace/telemetry.hpp"

namespace psanim::ckpt {

void encode_store(mp::Writer& w, const psys::SlicedStore& store);
/// Restores bounds and the exact slice layout into `store`; throws
/// SnapshotError when the serialized axis contradicts the store's, and
/// mp::DecodeError for a malformed payload (a truncation, unordered
/// bounds, or a slice or particle count the remaining bytes cannot hold).
void decode_store(mp::Reader& r, psys::SlicedStore& store);

void encode_telemetry(mp::Writer& w, const trace::Telemetry& tel);
trace::Telemetry decode_telemetry(mp::Reader& r);

/// kFlightRecorder section payload: the rank's recent-record ring with a
/// self-contained label table (see obs/flight_recorder.hpp).
void encode_flight_ring(mp::Writer& w, const obs::RankRecorder& rec,
                        const obs::LabelTable& labels);
std::vector<obs::SpanRecord> decode_flight_ring(mp::Reader& r,
                                                obs::LabelTable& labels);

}  // namespace psanim::ckpt
