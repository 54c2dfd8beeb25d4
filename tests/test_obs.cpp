// Observability suite (psanim::obs): histogram bucket math, registry
// merge semantics and the Prometheus golden text; span nesting and the
// flight ring; the self-contained ring codec; and the end-to-end
// properties the subsystem exists for — deterministic span streams across
// identical runs, send→recv flow pairing, metrics that reproduce the
// Telemetry aggregates exactly on fault-free runs, and a flight recorder
// whose pre-crash records survive a crash into the resumed run's trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/vault.hpp"
#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "obs/analysis.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "render/compare.hpp"
#include "sim/report.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using core::Scene;
using core::SimSettings;

// --- metrics -----------------------------------------------------------

TEST(Metrics, HistogramBucketMath) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);

  // le-convention: a value lands in the first bucket whose bound is >= it.
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + the +Inf bucket
  EXPECT_EQ(h.bucket_counts()[0], 2u);      // 0.5, 1.0
  EXPECT_EQ(h.bucket_counts()[1], 1u);      // 1.5
  EXPECT_EQ(h.bucket_counts()[2], 1u);      // 3.0
  EXPECT_EQ(h.bucket_counts()[3], 1u);      // 100.0 -> +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
}

TEST(Metrics, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, MergeAddsCountersAndHistogramsKeepsMaxGauge) {
  obs::MetricsRegistry a;
  a.counter("msgs").add(3);
  a.gauge("depth").set(5);
  a.histogram("lat", {1.0, 2.0}).observe(0.5);

  obs::MetricsRegistry b;
  b.counter("msgs").add(4);
  b.gauge("depth").set(2);
  b.histogram("lat", {1.0, 2.0}).observe(1.5);
  b.counter("only_b").inc();

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counter_value("msgs"), 7.0);
  EXPECT_DOUBLE_EQ(a.counter_value("only_b"), 1.0);
  EXPECT_DOUBLE_EQ(a.gauge_value("depth"), 5.0);  // max, not sum
  const auto* h = a.find_histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->bucket_counts()[0], 1u);
  EXPECT_EQ(h->bucket_counts()[1], 1u);
}

TEST(Metrics, MergeRejectsHistogramBoundMismatch) {
  obs::MetricsRegistry a;
  a.histogram("lat", {1.0, 2.0});
  obs::MetricsRegistry b;
  b.histogram("lat", {1.0, 4.0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Metrics, PrometheusGoldenText) {
  obs::MetricsRegistry reg;
  reg.counter("psanim_msgs_total").add(12);
  reg.gauge("psanim_depth").set(3.5);
  auto& h = reg.histogram("psanim_lat_seconds", {0.5, 2.0});
  h.observe(0.25);
  h.observe(1.0);
  h.observe(9.0);

  const std::string expected =
      "# TYPE psanim_msgs_total counter\n"
      "psanim_msgs_total 12\n"
      "# TYPE psanim_depth gauge\n"
      "psanim_depth 3.5\n"
      "# TYPE psanim_lat_seconds histogram\n"
      "psanim_lat_seconds_bucket{le=\"0.5\"} 1\n"
      "psanim_lat_seconds_bucket{le=\"2\"} 2\n"
      "psanim_lat_seconds_bucket{le=\"+Inf\"} 3\n"
      "psanim_lat_seconds_sum 10.25\n"
      "psanim_lat_seconds_count 3\n";
  EXPECT_EQ(reg.prometheus(), expected);
}

TEST(Metrics, SamplesFlattenHistogramsCumulatively) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("lat", {1.0});
  h.observe(0.5);
  h.observe(5.0);
  const auto samples = reg.samples();
  std::vector<std::string> names;
  for (const auto& s : samples) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "lat_bucket{le=\"1\"}", "lat_bucket{le=\"+Inf\"}",
                       "lat_sum", "lat_count"}));
  EXPECT_DOUBLE_EQ(samples[1].value, 2.0);  // cumulative
}

TEST(Metrics, FormatValueDropsTrailingPointForIntegers) {
  EXPECT_EQ(obs::format_metric_value(12.0), "12");
  EXPECT_EQ(obs::format_metric_value(3.5), "3.5");
}

// --- span recorder + flight ring ---------------------------------------

TEST(Recorder, SpansNestAndRecordParents) {
  obs::LabelTable labels;
  obs::RankRecorder rec(3);
  const auto outer = rec.open_span(labels.intern("frame"), 2, 1.0);
  const auto inner = rec.open_span(labels.intern("simulate"), 2, 1.5);
  EXPECT_EQ(rec.open_depth(), 2u);
  rec.close_span(2.0);
  rec.close_span(3.0);
  EXPECT_EQ(rec.open_depth(), 0u);

  const auto& rs = rec.records();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].id, outer);
  EXPECT_EQ(rs[0].parent, 0u);
  EXPECT_DOUBLE_EQ(rs[0].begin_v, 1.0);
  EXPECT_DOUBLE_EQ(rs[0].end_v, 3.0);
  EXPECT_EQ(rs[1].id, inner);
  EXPECT_EQ(rs[1].parent, outer);
  EXPECT_EQ(rs[1].rank, 3);
  EXPECT_EQ(rs[1].kind, obs::RecordKind::kSpan);
}

TEST(Recorder, FlightRingKeepsMostRecentCompletedRecords) {
  obs::LabelTable labels;
  obs::RankRecorder rec(0);
  rec.enable_ring(3);
  for (int i = 0; i < 5; ++i) {
    rec.instant(labels.intern("e" + std::to_string(i)), 0,
                static_cast<double>(i));
  }
  const auto ring = rec.ring_snapshot();
  ASSERT_EQ(ring.size(), 3u);
  // Oldest first, and only the last three survived.
  EXPECT_EQ(labels.name(ring[0].label), "e2");
  EXPECT_EQ(labels.name(ring[1].label), "e3");
  EXPECT_EQ(labels.name(ring[2].label), "e4");
}

TEST(Recorder, RingCodecRoundTripsThroughAForeignLabelTable) {
  obs::LabelTable labels;
  obs::RankRecorder rec(2);
  rec.enable_ring(8);
  rec.open_span(labels.intern("frame"), 4, 1.0);
  rec.instant(labels.intern("note"), 4, 1.25);
  rec.close_span(2.0);
  rec.flow(obs::RecordKind::kFlowSend, 77, labels.intern("exchange"), 4, 1.5);

  mp::Writer w;
  obs::encode_ring(w, rec, labels);
  mp::Message m;
  m.payload = w.take();
  mp::Reader r(m);
  // A fresh table with different pre-existing contents: decode re-interns.
  obs::LabelTable other;
  other.intern("unrelated");
  const auto back = obs::decode_ring(r, other);

  const auto ring = rec.ring_snapshot();
  ASSERT_EQ(back.size(), ring.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(other.name(back[i].label), labels.name(ring[i].label)) << i;
    EXPECT_EQ(back[i].id, ring[i].id);
    EXPECT_EQ(back[i].kind, ring[i].kind);
    EXPECT_EQ(back[i].flow, ring[i].flow);
    EXPECT_DOUBLE_EQ(back[i].begin_v, ring[i].begin_v);
    EXPECT_DOUBLE_EQ(back[i].end_v, ring[i].end_v);
  }
}

TEST(Recorder, EmitRecoveredSkipsOwnHistoryAndFlagsForeignRecords) {
  obs::LabelTable labels;
  const auto lbl = labels.intern("e");

  obs::RankRecorder rec(0);
  rec.enable_ring(8);
  rec.instant(lbl, 0, 0.5);  // id 1 — "our own" pre-rollback history

  // In-run rollback: the recovered ring holds records this recorder
  // already produced — nothing is re-emitted.
  std::vector<obs::SpanRecord> own(rec.ring_snapshot());
  EXPECT_EQ(rec.emit_recovered(own), 0u);
  EXPECT_EQ(rec.records().size(), 1u);

  // Restart into a new run: a fresh recorder adopts the records, flagged
  // replayed, and continues numbering past them.
  obs::RankRecorder fresh(0);
  fresh.enable_ring(8);
  const auto emitted = fresh.emit_recovered(own);
  EXPECT_EQ(emitted, 1u);
  ASSERT_EQ(fresh.records().size(), 1u);
  EXPECT_EQ(fresh.records()[0].replayed, 1u);
  EXPECT_GT(fresh.next_id(), own.back().id);
}

// --- settings validation (satellite) -----------------------------------

TEST(ObsSettings, ValidateRejectsBrokenObservabilityConfig) {
  sim::ScenarioParams p;
  SimSettings s;
  obs::Trace trace;

  s.obs.flight_recorder = true;  // no tracing configured
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s.obs.trace = &trace;
  s.obs.flight_capacity = 0;  // a ring that records nothing
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.obs.flight_capacity = 64;
  EXPECT_NO_THROW(s.validate());

  s.obs.trace_json_path = ".";  // a directory, not a file
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.obs.trace_json_path = "/nonexistent-psanim-dir/trace.json";
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.obs.trace_json_path.clear();
  EXPECT_NO_THROW(s.validate());
}

// --- end-to-end: traced runs -------------------------------------------

Scene obs_scene() {
  sim::ScenarioParams p;
  p.systems = 2;
  p.particles_per_system = 600;
  p.frames = 8;
  return sim::make_snow_scene(p);
}

SimSettings obs_settings() {
  SimSettings s;
  s.frames = 8;
  s.ncalc = 3;
  s.image_width = 64;
  s.image_height = 48;
  s.phase_timeout_s = 10.0;
  return s;
}

core::ParallelResult run(const Scene& scene, const SimSettings& settings) {
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), std::min(settings.ncalc, 8),
                 settings.ncalc}};
  cfg.network = net::Interconnect::kMyrinet;
  const auto built = sim::build_cluster(cfg);
  return core::run_parallel(scene, settings, built.spec, built.placement,
                            {}, mp::RuntimeOptions{.recv_timeout_s = 15.0});
}

/// Schedule-independent projection of a trace: label ids vary with thread
/// interleaving and flow ids are global send-order sequence values (pairing
/// keys within one run, not stable across runs), so compare resolved
/// strings, virtual times and record structure only.
std::vector<std::string> stable_stream(const obs::Trace& trace) {
  std::vector<std::string> out;
  for (const auto& r : trace.sorted_records()) {
    std::ostringstream os;
    os << r.rank << '|' << r.frame << '|' << static_cast<int>(r.kind) << '|'
       << trace.labels().name(r.label) << '|' << r.begin_v << '|' << r.end_v
       << '|' << static_cast<int>(r.replayed);
    out.push_back(os.str());
  }
  return out;
}

TEST(TraceRun, SpanStreamIsDeterministicAcrossIdenticalRuns) {
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();

  obs::Trace t1;
  settings.obs.trace = &t1;
  run(scene, settings);

  obs::Trace t2;
  settings.obs.trace = &t2;
  run(scene, settings);

  ASSERT_GT(t1.record_count(), 0u);
  const auto s1 = stable_stream(t1);
  const auto s2 = stable_stream(t2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    ASSERT_EQ(s1[i], s2[i]) << "first divergence at record " << i;
  }
}

TEST(TraceRun, PhaseSpansNestUnderFrameSpansOnEveryRole) {
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();
  obs::Trace trace;
  settings.obs.trace = &trace;
  run(scene, settings);

  std::size_t frames_seen = 0, nested = 0;
  for (const auto& r : trace.sorted_records()) {
    if (r.kind != obs::RecordKind::kSpan) continue;
    const std::string name = trace.labels().name(r.label);
    if (name == "frame") {
      ++frames_seen;
      EXPECT_EQ(r.parent, 0u) << "frame spans are top-level";
    } else {
      EXPECT_NE(r.parent, 0u) << "phase span '" << name << "' must nest";
      ++nested;
    }
    EXPECT_GE(r.end_v, r.begin_v);
  }
  // frame spans on all ranks: manager + imgen + 3 calcs, 8 frames each.
  EXPECT_EQ(frames_seen, 5u * settings.frames);
  EXPECT_GT(nested, 0u);

  // The timeline of one frame shows the protocol phases in virtual-time
  // order (the Fig. 2 view, regenerated from spans).
  const auto tl = trace.frame_timeline(2);
  ASSERT_FALSE(tl.empty());
  EXPECT_TRUE(std::is_sorted(tl.begin(), tl.end(),
                             [](const auto& a, const auto& b) {
                               return a.vtime < b.vtime;
                             }));
  const auto has = [&](const char* needle) {
    return std::any_of(tl.begin(), tl.end(), [&](const auto& e) {
      return e.text.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(has("simulate"));
  EXPECT_TRUE(has("exchange"));
  EXPECT_TRUE(has("render"));
}

TEST(TraceRun, EveryRecvPairsWithExactlyOneSend) {
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();
  obs::Trace trace;
  settings.obs.trace = &trace;
  run(scene, settings);

  std::set<std::uint64_t> sends;
  std::set<std::uint64_t> recvs;
  for (const auto& r : trace.sorted_records()) {
    if (r.kind == obs::RecordKind::kFlowSend) {
      EXPECT_TRUE(sends.insert(r.flow).second) << "duplicate send flow id";
    } else if (r.kind == obs::RecordKind::kFlowRecv) {
      EXPECT_TRUE(recvs.insert(r.flow).second) << "duplicate recv flow id";
    }
  }
  ASSERT_GT(recvs.size(), 0u);
  // Every consumed message was sent; undrained sends (none here, but
  // faulted runs have them) would be the only asymmetry.
  for (const auto f : recvs) EXPECT_EQ(sends.count(f), 1u);
}

TEST(TraceRun, ChromeJsonIsWellFormedAndPerfettoShaped) {
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();
  obs::Trace trace;
  settings.obs.trace = &trace;
  run(scene, settings);

  const std::string json = trace.chrome_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"manager\""), std::string::npos);
  EXPECT_NE(json.find("\"calc 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow starts
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow ends
  // Flows must never dangle: equal numbers of starts and finishes.
  const auto count = [&](const char* needle) {
    std::size_t n = 0;
    for (auto pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"s\""), count("\"ph\":\"f\""));
}

TEST(TraceRun, MetricsReproduceTelemetryAggregatesOnFaultFreeRuns) {
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();
  obs::Trace trace;
  settings.obs.trace = &trace;
  const auto r = run(scene, settings);

  std::uint64_t exchange_bytes = 0;
  for (const auto& fs : r.telemetry.calc_frames()) {
    exchange_bytes += fs.exchange_bytes;
  }
  EXPECT_DOUBLE_EQ(r.metrics.counter_value("psanim_exchange_bytes_total"),
                   static_cast<double>(exchange_bytes));
  EXPECT_DOUBLE_EQ(r.metrics.counter_value("psanim_lb_orders_total"),
                   static_cast<double>(r.telemetry.total_balance_orders()));

  // The substrate counters line up with the per-rank traffic tallies.
  std::uint64_t sent = 0;
  for (const auto& p : r.procs) sent += p.traffic.msgs_sent;
  EXPECT_DOUBLE_EQ(r.metrics.counter_value("psanim_mp_msgs_sent_total"),
                   static_cast<double>(sent));

  // Both dump formats carry the same flattened samples.
  const auto csv = sim::metrics_csv(r.metrics).str();
  EXPECT_NE(csv.find("psanim_exchange_bytes_total"), std::string::npos);
  EXPECT_NE(r.metrics.prometheus().find("psanim_exchange_bytes_total"),
            std::string::npos);
}

TEST(TraceRun, TracingLeavesVirtualResultsAndPixelsUnchanged) {
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();
  const auto plain = run(scene, settings);

  obs::Trace trace;
  settings.obs.trace = &trace;
  const auto traced = run(scene, settings);

  // Observation is free in virtual time: every rank's clocks and traffic,
  // the time-to-images and every pixel match the untraced run.
  ASSERT_GT(trace.record_count(), 0u);
  ASSERT_EQ(plain.procs.size(), traced.procs.size());
  for (std::size_t r = 0; r < plain.procs.size(); ++r) {
    EXPECT_EQ(plain.procs[r].finish_time, traced.procs[r].finish_time) << r;
    EXPECT_EQ(plain.procs[r].compute_s, traced.procs[r].compute_s) << r;
    EXPECT_EQ(plain.procs[r].comm_s, traced.procs[r].comm_s) << r;
    EXPECT_EQ(plain.procs[r].traffic.msgs_sent,
              traced.procs[r].traffic.msgs_sent)
        << r;
    EXPECT_EQ(plain.procs[r].traffic.bytes_sent,
              traced.procs[r].traffic.bytes_sent)
        << r;
  }
  EXPECT_EQ(plain.animation_s, traced.animation_s);
  EXPECT_EQ(render::hash_framebuffer(plain.final_frame),
            render::hash_framebuffer(traced.final_frame));
}

// --- chaos: the flight recorder survives a crash -----------------------

TEST(FlightRecorder, CrashedRunReplaysAndKeepsRecovering) {
  // A calculator dies mid-run; restart-from-checkpoint rolls the run back.
  // The trace must show the recovery markers and the checkpoint metrics
  // must count the restore — and the run must still finish every frame.
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();
  settings.ckpt.interval = 2;
  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 5}};
  obs::Trace trace;
  settings.obs.trace = &trace;
  settings.obs.flight_recorder = true;
  settings.obs.flight_capacity = 128;
  const auto r = run(scene, settings);

  ASSERT_EQ(r.telemetry.image_frames().size(), settings.frames);
  EXPECT_EQ(r.fault_stats.restart_recoveries, 1u);
  EXPECT_GE(r.metrics.counter_value("psanim_ckpt_restores_total"), 1.0);
  EXPECT_GE(r.metrics.counter_value("psanim_ckpt_snapshots_total"), 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.counter_value("psanim_fault_restart_recoveries_total"),
                   1.0);

  std::size_t recovery_marks = 0;
  for (const auto& rec : trace.sorted_records()) {
    if (trace.labels().name(rec.label) == "recovery: restored checkpoint") {
      ++recovery_marks;
    }
  }
  EXPECT_GE(recovery_marks, 1u);  // the restarted rank, at least
}

TEST(FlightRecorder, RingRecordsSurviveIntoAResumedRunsTrace) {
  // Run 1 checkpoints (with flight rings inside the snapshots) into a
  // shared vault; run 2 resumes from the last sealed frame with a brand
  // new Trace. The pre-crash history must reappear there, flagged
  // replayed, alongside the resumed epoch's fresh spans.
  const Scene scene = obs_scene();
  ckpt::Vault vault;

  SimSettings first = obs_settings();
  first.ckpt.interval = 2;  // seals manifests after frames 1, 3, 5
  first.ckpt_vault = &vault;
  obs::Trace t1;
  first.obs.trace = &t1;
  first.obs.flight_recorder = true;
  first.obs.flight_capacity = 128;
  run(scene, first);
  ASSERT_TRUE(vault.manifest(5));

  SimSettings second = obs_settings();
  second.ckpt.interval = 2;
  second.ckpt_vault = &vault;
  second.resume_from = 5;
  obs::Trace t2;
  second.obs.trace = &t2;
  second.obs.flight_recorder = true;
  second.obs.flight_capacity = 128;
  const auto r = run(scene, second);

  // The resumed run's telemetry spans all frames (restored + fresh)...
  EXPECT_EQ(r.telemetry.image_frames().size(), second.frames);

  // ...but its trace contains pre-crash records recovered from the rings.
  std::size_t replayed = 0, fresh = 0;
  std::set<int> replayed_ranks;
  for (const auto& rec : t2.sorted_records()) {
    if (rec.replayed) {
      ++replayed;
      replayed_ranks.insert(rec.rank);
      EXPECT_LE(rec.frame, 5u) << "replayed records predate the resume";
    } else {
      ++fresh;
    }
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(fresh, 0u);
  // Every checkpointing role carried a ring: manager, imgen, 3 calcs.
  EXPECT_EQ(replayed_ranks.size(), 5u);

  // The timeline marks them, so a reader can tell history from replay.
  bool marked = false;
  for (const auto& e : t2.frame_timeline(5)) {
    if (e.text.find("(replayed)") != std::string::npos) marked = true;
  }
  EXPECT_TRUE(marked);

  // And the export keeps them loadable: replay category in the JSON.
  EXPECT_NE(t2.chrome_json().find("\"replay\""), std::string::npos);
}

// --- quantiles ---------------------------------------------------------

TEST(Quantiles, ExactNearestRankPercentiles) {
  obs::Quantiles q;
  // Out of order on purpose: the series sorts lazily.
  for (const double v : {7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 4.0, 10.0, 6.0}) {
    q.observe(v);
  }
  EXPECT_EQ(q.count(), 10u);
  EXPECT_DOUBLE_EQ(q.sum(), 55.0);
  // Nearest-rank on n=10: p50 is the 5th smallest, p95/p99 the 10th.
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.95), 10.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 10.0);
  EXPECT_TRUE(std::is_sorted(q.sorted_samples().begin(),
                             q.sorted_samples().end()));

  obs::Quantiles four;
  for (const double v : {4.0, 2.0, 3.0, 1.0}) four.observe(v);
  EXPECT_DOUBLE_EQ(four.quantile(0.5), 2.0);   // ceil(0.5 * 4) = 2nd
  EXPECT_DOUBLE_EQ(four.quantile(0.25), 1.0);  // ceil(0.25 * 4) = 1st
}

TEST(Quantiles, MergeEqualsObservingTheUnion) {
  obs::Quantiles a, b, all;
  for (const double v : {1.0, 3.0, 5.0}) {
    a.observe(v);
    all.observe(v);
  }
  for (const double v : {2.0, 4.0}) {
    b.observe(v);
    all.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.sorted_samples(), all.sorted_samples());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 3.0);
}

TEST(Quantiles, EmptySeriesAnswersZeroNeverNan) {
  obs::Quantiles q;
  EXPECT_EQ(q.count(), 0u);
  EXPECT_DOUBLE_EQ(q.sum(), 0.0);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(q.quantile(p), 0.0);
  }
}

TEST(Quantiles, RegistryExportsPercentileGaugesAndTotals) {
  obs::MetricsRegistry m;
  auto& q = m.quantiles("psanim_test_wait_seconds");
  for (int i = 1; i <= 100; ++i) q.observe(static_cast<double>(i));

  const std::string prom = m.prometheus();
  EXPECT_NE(prom.find("# TYPE psanim_test_wait_seconds_p50 gauge\n"
                      "psanim_test_wait_seconds_p50 50\n"),
            std::string::npos);
  EXPECT_NE(prom.find("psanim_test_wait_seconds_p95 95\n"),
            std::string::npos);
  EXPECT_NE(prom.find("psanim_test_wait_seconds_p99 99\n"),
            std::string::npos);
  EXPECT_NE(prom.find("psanim_test_wait_seconds_sum 5050\n"),
            std::string::npos);
  EXPECT_NE(prom.find("psanim_test_wait_seconds_count 100\n"),
            std::string::npos);

  // Registry merge folds quantile series sample-by-sample.
  obs::MetricsRegistry other;
  other.quantiles("psanim_test_wait_seconds").observe(1000.0);
  m.merge(other);
  EXPECT_EQ(m.quantiles("psanim_test_wait_seconds").count(), 101u);
  EXPECT_DOUBLE_EQ(m.quantiles("psanim_test_wait_seconds").quantile(1.0),
                   1000.0);
}

// --- analysis: hand-built DAG fixtures ---------------------------------

TEST(Analysis, SingleRankChainSplitsAtLeafBoundaries) {
  obs::Trace t;
  t.begin_run(1);
  const std::uint32_t frame = t.labels().intern("frame");
  const std::uint32_t simulate = t.labels().intern("simulate");
  auto& r0 = t.rank(0);
  r0.open_span(frame, 0, 0.0);
  r0.open_span(simulate, 0, 1.0);
  r0.close_span(4.0);
  r0.close_span(5.0);

  const obs::Analysis a = obs::analyze(t);
  const obs::CriticalPath& cp = a.critical_path;
  EXPECT_DOUBLE_EQ(cp.makespan_s, 5.0);
  EXPECT_EQ(cp.end_rank, 0);
  EXPECT_DOUBLE_EQ(cp.compute_s, 5.0);
  EXPECT_DOUBLE_EQ(cp.wire_s, 0.0);
  // The child carves the parent: frame [0,1], simulate [1,4], frame [4,5].
  ASSERT_EQ(cp.segments.size(), 3u);
  EXPECT_EQ(cp.segments[0].label, "frame");
  EXPECT_DOUBLE_EQ(cp.segments[0].begin_v, 0.0);
  EXPECT_DOUBLE_EQ(cp.segments[0].end_v, 1.0);
  EXPECT_EQ(cp.segments[1].label, "simulate");
  EXPECT_DOUBLE_EQ(cp.segments[1].end_v, 4.0);
  EXPECT_EQ(cp.segments[2].label, "frame");
  EXPECT_DOUBLE_EQ(cp.segments[2].end_v, 5.0);
  ASSERT_EQ(cp.by_phase.size(), 2u);  // label-sorted: frame, simulate
  EXPECT_EQ(cp.by_phase[0].label, "frame");
  EXPECT_DOUBLE_EQ(cp.by_phase[0].seconds, 2.0);
  EXPECT_DOUBLE_EQ(cp.by_phase[1].seconds, 3.0);

  // The rank records a "simulate" span, so it is a calculator and gets a
  // frame-attribution row: alone it is its own straggler, imbalance 1.
  ASSERT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(a.frames[0].gating_rank, 0);
  EXPECT_DOUBLE_EQ(a.frames[0].imbalance, 1.0);
  EXPECT_DOUBLE_EQ(a.frames[0].compute_s, 5.0);
  EXPECT_DOUBLE_EQ(a.frames[0].wait_s, 0.0);
}

TEST(Analysis, UncoveredTimeBecomesUntracedSegments) {
  obs::Trace t;
  t.begin_run(1);
  const std::uint32_t work = t.labels().intern("work");
  t.rank(0).open_span(work, 0, 2.0);
  t.rank(0).close_span(5.0);

  const obs::CriticalPath cp = obs::analyze(t).critical_path;
  ASSERT_EQ(cp.segments.size(), 2u);
  EXPECT_EQ(cp.segments[0].label, "(untraced)");
  EXPECT_DOUBLE_EQ(cp.segments[0].begin_v, 0.0);
  EXPECT_DOUBLE_EQ(cp.segments[0].end_v, 2.0);
  EXPECT_EQ(cp.segments[1].label, "work");
}

TEST(Analysis, CrossRankFlowBecomesWireSegment) {
  obs::Trace t;
  t.begin_run(2);
  const std::uint32_t produce = t.labels().intern("produce");
  const std::uint32_t consume = t.labels().intern("consume");
  const std::uint32_t msg = t.labels().intern("msg");

  // rank 0 computes [0,5] and sends at 5; the message is on the wire
  // until 6, when rank 1 — idle since 0 — consumes it and works to 8.
  t.rank(0).open_span(produce, 0, 0.0);
  t.rank(0).close_span(5.0);
  t.rank(0).flow(obs::RecordKind::kFlowSend, 1, msg, 0, 5.0);
  t.rank(1).open_span(consume, 0, 0.0);
  t.rank(1).flow(obs::RecordKind::kFlowRecv, 1, msg, 0, 6.0);
  t.rank(1).close_span(8.0);

  const obs::CriticalPath cp = obs::analyze(t).critical_path;
  EXPECT_DOUBLE_EQ(cp.makespan_s, 8.0);
  EXPECT_EQ(cp.end_rank, 1);
  ASSERT_EQ(cp.segments.size(), 3u);

  EXPECT_EQ(cp.segments[0].kind, obs::SegmentKind::kCompute);
  EXPECT_EQ(cp.segments[0].rank, 0);
  EXPECT_EQ(cp.segments[0].label, "produce");
  EXPECT_DOUBLE_EQ(cp.segments[0].end_v, 5.0);

  EXPECT_EQ(cp.segments[1].kind, obs::SegmentKind::kWire);
  EXPECT_EQ(cp.segments[1].rank, 1);       // receiver owns the wait
  EXPECT_EQ(cp.segments[1].from_rank, 0);  // sender attribution
  EXPECT_EQ(cp.segments[1].label, "msg");
  EXPECT_DOUBLE_EQ(cp.segments[1].begin_v, 5.0);
  EXPECT_DOUBLE_EQ(cp.segments[1].end_v, 6.0);

  EXPECT_EQ(cp.segments[2].kind, obs::SegmentKind::kCompute);
  EXPECT_EQ(cp.segments[2].rank, 1);
  EXPECT_EQ(cp.segments[2].label, "consume");
  EXPECT_DOUBLE_EQ(cp.segments[2].end_v, 8.0);

  EXPECT_DOUBLE_EQ(cp.compute_s, 7.0);
  EXPECT_DOUBLE_EQ(cp.wire_s, 1.0);
  EXPECT_DOUBLE_EQ(cp.wire_share(), 1.0 / 8.0);
  // rank 1's pre-recv idle [0,5) is NOT on the path: the sender's compute
  // covers it. by_rank: rank 0 owns 5s, rank 1 owns wire + compute = 3s.
  ASSERT_EQ(cp.by_rank.size(), 2u);
  EXPECT_DOUBLE_EQ(cp.by_rank[0].seconds, 5.0);
  EXPECT_DOUBLE_EQ(cp.by_rank[1].seconds, 3.0);
}

TEST(Analysis, DiamondJoinFollowsTheLaterArrival) {
  obs::Trace t;
  t.begin_run(3);
  const std::uint32_t early = t.labels().intern("early");
  const std::uint32_t late = t.labels().intern("late");
  const std::uint32_t join = t.labels().intern("join");
  const std::uint32_t msg = t.labels().intern("msg");

  // Two senders into one join: rank 0 sends at 2 (arrives 3), rank 1
  // sends at 4 (arrives 6). The join waits for BOTH; the critical path
  // must run through rank 1, the later arrival, and never touch rank 0.
  t.rank(0).open_span(early, 0, 0.0);
  t.rank(0).close_span(2.0);
  t.rank(0).flow(obs::RecordKind::kFlowSend, 100, msg, 0, 2.0);
  t.rank(1).open_span(late, 0, 0.0);
  t.rank(1).close_span(4.0);
  t.rank(1).flow(obs::RecordKind::kFlowSend, 101, msg, 0, 4.0);
  t.rank(2).open_span(join, 0, 0.0);
  t.rank(2).flow(obs::RecordKind::kFlowRecv, 100, msg, 0, 3.0);
  t.rank(2).flow(obs::RecordKind::kFlowRecv, 101, msg, 0, 6.0);
  t.rank(2).close_span(7.0);

  const obs::CriticalPath cp = obs::analyze(t).critical_path;
  EXPECT_DOUBLE_EQ(cp.makespan_s, 7.0);
  EXPECT_EQ(cp.end_rank, 2);
  for (const auto& s : cp.segments) {
    EXPECT_NE(s.rank, 0) << "the early sender must not be on the path";
  }
  bool wire_from_late = false;
  for (const auto& s : cp.segments) {
    if (s.kind == obs::SegmentKind::kWire) {
      EXPECT_EQ(s.from_rank, 1);
      EXPECT_DOUBLE_EQ(s.begin_v, 4.0);
      EXPECT_DOUBLE_EQ(s.end_v, 6.0);
      wire_from_late = true;
    }
  }
  EXPECT_TRUE(wire_from_late);
  EXPECT_DOUBLE_EQ(cp.compute_s, 5.0);  // late [0,4] + join [6,7]
  EXPECT_DOUBLE_EQ(cp.wire_s, 2.0);
}

TEST(Analysis, UnmatchedRecvAttributesWireFromUnknownSender) {
  obs::Trace t;
  t.begin_run(2);
  const std::uint32_t alive = t.labels().intern("alive");
  const std::uint32_t msg = t.labels().intern("msg");

  // rank 0 crashed before its send was traced; rank 1 still consumed a
  // message at 5. The wait must be attributed as wire with no sender.
  t.rank(0).open_span(alive, 0, 0.0);
  t.rank(0).close_span(1.0);
  t.rank(1).open_span(alive, 0, 0.0);
  t.rank(1).flow(obs::RecordKind::kFlowRecv, 9, msg, 0, 5.0);
  t.rank(1).close_span(6.0);

  const obs::CriticalPath cp = obs::analyze(t).critical_path;
  EXPECT_DOUBLE_EQ(cp.makespan_s, 6.0);
  ASSERT_EQ(cp.segments.size(), 2u);
  EXPECT_EQ(cp.segments[0].kind, obs::SegmentKind::kWire);
  EXPECT_EQ(cp.segments[0].from_rank, -1);
  EXPECT_DOUBLE_EQ(cp.segments[0].begin_v, 0.0);
  EXPECT_DOUBLE_EQ(cp.segments[0].end_v, 5.0);
  EXPECT_EQ(cp.segments[1].kind, obs::SegmentKind::kCompute);
  EXPECT_DOUBLE_EQ(cp.segments[1].end_v, 6.0);
}

TEST(Analysis, EmptyTraceYieldsEmptyPath) {
  obs::Trace t;
  t.begin_run(2);
  const obs::Analysis a = obs::analyze(t);
  EXPECT_DOUBLE_EQ(a.critical_path.makespan_s, 0.0);
  EXPECT_EQ(a.critical_path.end_rank, -1);
  EXPECT_TRUE(a.critical_path.segments.empty());
  EXPECT_TRUE(a.frames.empty());
  EXPECT_DOUBLE_EQ(a.critical_path.wire_share(), 0.0);  // no NaN
  EXPECT_NE(obs::analysis_json(a).find("psanim-obs-report-v1"),
            std::string::npos);
}

TEST(Analysis, FrameAttributionNamesTheStragglerAndItsPhase) {
  obs::Trace t;
  t.begin_run(2);
  const std::uint32_t frame = t.labels().intern("frame");
  const std::uint32_t simulate = t.labels().intern("simulate");
  const std::uint32_t render = t.labels().intern("render");

  // Frame 3 on two calculators: rank 1 is the straggler, and its loss is
  // concentrated in "simulate" (3.0 vs 1.0) rather than "render" (equal).
  auto emit = [&](int rank, double sim_end, double end) {
    auto& r = t.rank(rank);
    r.open_span(frame, 3, 0.0);
    r.open_span(simulate, 3, 0.0);
    r.close_span(sim_end);
    r.open_span(render, 3, sim_end);
    r.close_span(sim_end + 1.0);
    r.close_span(end);
  };
  emit(0, 1.0, 2.0);
  emit(1, 3.0, 4.0);

  const obs::Analysis a = obs::analyze(t);
  ASSERT_EQ(a.frames.size(), 1u);
  const obs::FrameAttribution& f = a.frames[0];
  EXPECT_EQ(f.frame, 3u);
  EXPECT_EQ(f.gating_rank, 1);
  EXPECT_EQ(f.gating_phase, "simulate");
  EXPECT_DOUBLE_EQ(f.slowest_s, 4.0);
  EXPECT_DOUBLE_EQ(f.mean_s, 3.0);
  EXPECT_DOUBLE_EQ(f.imbalance, 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(f.compute_s, 4.0);  // no blocked intervals
  EXPECT_DOUBLE_EQ(f.wait_s, 0.0);
  EXPECT_DOUBLE_EQ(f.wire_s, 0.0);
}

// --- analysis: end-to-end on real runs ---------------------------------

TEST(Analysis, ReportIsByteIdenticalAcrossExecutionCores) {
  const Scene scene = obs_scene();

  const auto report = [&](mp::ExecMode mode, int workers) {
    SimSettings settings = obs_settings();
    obs::Trace trace;
    settings.obs.trace = &trace;
    sim::RunConfig cfg;
    cfg.groups = {{cluster::NodeType::e800(), settings.ncalc,
                   settings.ncalc}};
    cfg.network = net::Interconnect::kMyrinet;
    const auto built = sim::build_cluster(cfg);
    mp::RuntimeOptions rt;
    rt.recv_timeout_s = 15.0;
    rt.exec_mode = mode;
    rt.workers = workers;
    core::run_parallel(scene, settings, built.spec, built.placement, {}, rt);
    return obs::analysis_json(obs::analyze(trace));
  };

  const std::string fibers1 = report(mp::ExecMode::kFibers, 1);
  const std::string fibers8 = report(mp::ExecMode::kFibers, 8);
  const std::string threads = report(mp::ExecMode::kThreads, 0);
  EXPECT_EQ(fibers1, fibers8);
  EXPECT_EQ(fibers1, threads);
  // And the report is structurally alive: a path and per-frame rows.
  EXPECT_NE(fibers1.find("\"segments\""), std::string::npos);
  EXPECT_NE(fibers1.find("\"gating_rank\""), std::string::npos);
}

TEST(Analysis, RunParallelKnobFoldsSummaryIntoMetrics) {
  const Scene scene = obs_scene();
  SimSettings settings = obs_settings();
  obs::Trace trace;
  settings.obs.trace = &trace;
  settings.obs.analysis = true;
  const auto r = run(scene, settings);

  EXPECT_GT(r.metrics.gauge_value("psanim_obs_cp_makespan_seconds"), 0.0);
  EXPECT_GT(r.metrics.counter_value("psanim_obs_cp_segments_total"), 0.0);
  const double compute =
      r.metrics.counter_value("psanim_obs_cp_compute_seconds_total");
  const double wire =
      r.metrics.counter_value("psanim_obs_cp_wire_seconds_total");
  EXPECT_DOUBLE_EQ(compute + wire,
                   r.metrics.gauge_value("psanim_obs_cp_makespan_seconds"));
  const obs::Quantiles* imb =
      r.metrics.find_quantiles("psanim_obs_frame_imbalance");
  ASSERT_NE(imb, nullptr);
  EXPECT_EQ(imb->count(), static_cast<std::uint64_t>(settings.frames));
  EXPECT_NE(r.metrics.prometheus().find("psanim_obs_frame_imbalance_p99"),
            std::string::npos);
}

TEST(Analysis, ValidateRejectsAnalysisWithoutTracing) {
  SimSettings s;
  s.obs.analysis = true;  // analysis needs a span stream to consume
  EXPECT_THROW(s.validate(), std::invalid_argument);

  obs::Trace trace;
  s.obs.trace = &trace;
  EXPECT_NO_THROW(s.validate());

  s.obs.analysis = false;
  s.obs.analysis_json_path = "report.json";  // implies analysis; needs trace
  s.obs.trace = nullptr;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.obs.trace = &trace;
  EXPECT_NO_THROW(s.validate());
  s.obs.analysis_json_path = ".";  // a directory, not a file
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace psanim
