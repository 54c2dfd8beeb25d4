#pragma once

// psanim::obs::Trace — one per run: per-rank recorders + per-rank metrics
// registries + the shared label table, implementing mp::TraceHook so every
// substrate message becomes a pair of flow records and a handful of metric
// updates. Post-run it answers timeline queries and exports Chrome
// trace-event JSON that Perfetto loads directly (one "process" per rank,
// flow arrows from each send to its matching recv).
//
// Reuse across runs composes coherent timelines: begin_run grows the
// recorder set without clearing existing records, so a restart-into-new-run
// recovery (SimSettings::resume_from) appends its epoch to the same trace
// the first run started — which is exactly what the flight recorder needs
// to show pre-crash and replayed frames side by side.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mp/trace_hook.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace psanim::obs {

/// One row of a per-frame timeline (human-oriented; the Fig. 2 bench and
/// debugging print these).
struct TimelineEntry {
  double vtime = 0.0;  ///< spans contribute at their *end* time
  int rank = -1;
  std::uint32_t frame = 0;
  std::string text;  ///< resolved label, spans suffixed with [+dur]
};

class Trace final : public mp::TraceHook {
 public:
  Trace();
  ~Trace() override;

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Size the per-rank state before Runtime::run. Growing is allowed and
  /// never discards records (see header comment); `ring_capacity` 0 leaves
  /// the flight ring disabled.
  void begin_run(int world_size, std::size_t ring_capacity = 0);

  int world_size() const { return static_cast<int>(ranks_.size()); }

  RankRecorder& rank(int r);
  const RankRecorder& rank(int r) const;
  MetricsRegistry& metrics(int r);
  const MetricsRegistry& metrics(int r) const;

  LabelTable& labels() { return labels_; }
  const LabelTable& labels() const { return labels_; }

  /// Display name for a rank's Perfetto "process" ("manager", "calc 2"...).
  /// A registered namespace (see set_rank_namespace) is prepended.
  void set_rank_name(int r, std::string name);

  /// Prefix every subsequently registered rank name with `ns` + "/". The
  /// farm sets a per-job namespace before handing the trace to
  /// run_parallel, so traces of co-scheduled jobs stay distinguishable
  /// ("job7/manager", "job7/calc 0", ...). Must be set before the run.
  void set_rank_namespace(std::string ns);
  const std::string& rank_namespace() const { return rank_namespace_; }

  /// Human name for a message tag; flow records on both ends use it, so it
  /// must be registered before the run (both threads read it).
  void name_tag(int tag, std::string name);

  /// All per-rank registries folded into one (counters/histograms add,
  /// gauges max).
  MetricsRegistry merged_metrics() const;

  std::size_t record_count() const;

  /// Every record across ranks, sorted by (begin time, rank, id).
  std::vector<SpanRecord> sorted_records() const;

  /// Resolved timeline of one frame across all ranks, sorted by
  /// (vtime, rank). Spans appear at their end time (the "phase done"
  /// convention of the protocol instants) with a duration suffix.
  std::vector<TimelineEntry> frame_timeline(std::uint32_t frame) const;

  /// Chrome trace-event JSON (Perfetto-loadable). Only flow pairs where
  /// both ends were traced are emitted as s/f events, so the file never
  /// shows a dangling arrow.
  std::string chrome_json() const;
  void write_chrome_json(const std::string& path) const;

  // --- mp::TraceHook ----------------------------------------------------
  void on_send(int src, int dst, int tag, std::uint64_t seq,
               std::size_t wire_bytes, double depart_s, double arrive_s,
               std::uint32_t frame) override;
  void on_recv(int rank, int src, int tag, std::uint64_t seq,
               std::size_t wire_bytes, double arrive_s,
               std::uint32_t frame) override;

 private:
  struct RankState;

  RankState& state(int r);
  const RankState& state(int r) const;
  std::uint32_t tag_label(int tag);

  LabelTable labels_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::map<int, std::uint32_t> tag_labels_;  // tag -> interned label id
  std::map<int, std::string> rank_names_;
  std::string rank_namespace_;
};

}  // namespace psanim::obs
