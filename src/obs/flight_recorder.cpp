#include "obs/flight_recorder.hpp"

#include <cstdint>
#include <map>
#include <string>

namespace psanim::obs {

void encode_ring(mp::Writer& w, const RankRecorder& rec,
                 const LabelTable& labels) {
  const std::vector<SpanRecord> ring = rec.ring_snapshot();

  // Local string table in first-appearance order: global ids are schedule
  // dependent, remapped ids are a pure function of the ring contents.
  std::map<std::uint32_t, std::uint32_t> local;
  std::vector<std::uint32_t> order;
  for (const SpanRecord& r : ring) {
    if (local.emplace(r.label, static_cast<std::uint32_t>(order.size()))
            .second) {
      order.push_back(r.label);
    }
  }
  w.put<std::uint64_t>(order.size());
  for (const std::uint32_t id : order) {
    const std::string name = labels.name(id);
    w.put_span(std::span<const char>(name.data(), name.size()));
  }
  w.put<std::uint64_t>(ring.size());
  for (const SpanRecord& r : ring) {
    w.put(r.id);
    w.put(r.parent);
    w.put(r.flow);
    w.put(r.begin_v);
    w.put(r.end_v);
    w.put(r.frame);
    w.put(local.at(r.label));
    w.put(r.rank);
    w.put(static_cast<std::uint8_t>(r.kind));
    w.put(r.replayed);
  }
}

namespace {

/// Encoded bytes of one ring record (see encode_ring).
constexpr std::size_t kRecordBytes = 3 * sizeof(std::uint64_t) +
                                     2 * sizeof(double) +
                                     2 * sizeof(std::uint32_t) +
                                     sizeof(std::int32_t) + 2;

}  // namespace

std::vector<SpanRecord> decode_ring(mp::Reader& r, LabelTable& labels) {
  // Every count is bounded by the bytes left before anything is sized
  // from it: a label costs at least its u64 length, a record kRecordBytes.
  const auto nlabels = r.get<std::uint64_t>();
  if (nlabels > r.remaining() / sizeof(std::uint64_t)) {
    throw mp::DecodeError("flight ring: label count exceeds payload");
  }
  std::vector<std::uint32_t> live_ids;
  live_ids.reserve(static_cast<std::size_t>(nlabels));
  for (std::uint64_t i = 0; i < nlabels; ++i) {
    const std::vector<char> chars = r.get_vector<char>();
    live_ids.push_back(
        labels.intern(std::string_view(chars.data(), chars.size())));
  }
  const auto n = r.get<std::uint64_t>();
  if (n > r.remaining() / kRecordBytes) {
    throw mp::DecodeError("flight ring: record count exceeds payload");
  }
  std::vector<SpanRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    SpanRecord rec;
    rec.id = r.get<std::uint64_t>();
    rec.parent = r.get<std::uint64_t>();
    rec.flow = r.get<std::uint64_t>();
    rec.begin_v = r.get<double>();
    rec.end_v = r.get<double>();
    rec.frame = r.get<std::uint32_t>();
    const auto label = r.get<std::uint32_t>();
    if (label >= live_ids.size()) {
      throw mp::DecodeError("flight ring: label index out of range");
    }
    rec.label = live_ids[label];
    rec.rank = r.get<std::int32_t>();
    const auto kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(RecordKind::kFlowRecv)) {
      throw mp::DecodeError("flight ring: unknown record kind " +
                            std::to_string(kind));
    }
    rec.kind = static_cast<RecordKind>(kind);
    rec.replayed = r.get<std::uint8_t>();
    if (rec.replayed > 1) {
      throw mp::DecodeError("flight ring: replayed flag is not 0 or 1");
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace psanim::obs
