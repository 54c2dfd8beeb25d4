#include "ckpt/state_codec.hpp"

#include <string>

#include "ckpt/format.hpp"
#include "obs/flight_recorder.hpp"

namespace psanim::ckpt {

void encode_store(mp::Writer& w, const psys::SlicedStore& store) {
  w.put<std::int32_t>(store.axis());
  w.put(store.lo());
  w.put(store.hi());
  const auto& slices = store.raw_slices();
  w.put<std::uint64_t>(slices.size());
  for (const auto& slice : slices) w.put_vector(slice);
}

void decode_store(mp::Reader& r, psys::SlicedStore& store) {
  const auto axis = r.get<std::int32_t>();
  if (axis != store.axis()) {
    throw SnapshotError("snapshot store: axis " + std::to_string(axis) +
                        " does not match configured axis " +
                        std::to_string(store.axis()));
  }
  const float lo = r.get<float>();
  const float hi = r.get<float>();
  if (!(lo <= hi)) {
    throw mp::DecodeError("snapshot store: bounds are not ordered");
  }
  // Each slice costs at least its u64 length: bound the count by the bytes
  // left before reserving for it.
  const auto n = r.get<std::uint64_t>();
  if (n == 0 || n > r.remaining() / sizeof(std::uint64_t)) {
    throw mp::DecodeError("snapshot store: slice count " + std::to_string(n) +
                          " does not fit the payload");
  }
  std::vector<std::vector<psys::Particle>> slices;
  slices.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    slices.push_back(r.get_vector<psys::Particle>());
  }
  store.adopt_slices(lo, hi, std::move(slices));
}

void encode_telemetry(mp::Writer& w, const trace::Telemetry& tel) {
  w.put_vector(tel.calc_frames());
  w.put_vector(tel.manager_frames());
  w.put_vector(tel.image_frames());
}

trace::Telemetry decode_telemetry(mp::Reader& r) {
  trace::Telemetry tel;
  for (const auto& s : r.get_vector<trace::CalcFrameStats>()) {
    tel.add_calc(s);
  }
  for (const auto& s : r.get_vector<trace::ManagerFrameStats>()) {
    tel.add_manager(s);
  }
  for (const auto& s : r.get_vector<trace::ImageFrameStats>()) {
    tel.add_image(s);
  }
  return tel;
}

void encode_flight_ring(mp::Writer& w, const obs::RankRecorder& rec,
                        const obs::LabelTable& labels) {
  obs::encode_ring(w, rec, labels);
}

std::vector<obs::SpanRecord> decode_flight_ring(mp::Reader& r,
                                                obs::LabelTable& labels) {
  return obs::decode_ring(r, labels);
}

}  // namespace psanim::ckpt
