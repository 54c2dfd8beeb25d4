#include "core/manager.hpp"

#include <algorithm>
#include <string>

#include "ckpt/snapshot.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/vault.hpp"
#include "lb/metrics.hpp"
#include "math/stats.hpp"
#include "obs/trace.hpp"

namespace psanim::core {

Manager::Manager(const SimSettings& settings, const Scene& scene, RoleEnv env,
                 std::vector<double> calc_powers)
    : set_(settings),
      scene_(scene),
      env_(env),
      calc_powers_(std::move(calc_powers)),
      base_rng_(settings.seed),
      alive_(static_cast<std::size_t>(settings.ncalc), 1),
      crash_done_(static_cast<std::size_t>(settings.ncalc), 0),
      tr_(settings.obs.trace, kManagerRank),
      metrics_{env.metrics} {
  alive_list_.reserve(static_cast<std::size_t>(settings.ncalc));
  for (int c = 0; c < settings.ncalc; ++c) alive_list_.push_back(c);
  const auto [lo, hi] = initial_interval(set_, scene_);
  decomps_.reserve(scene_.systems.size());
  policies_.reserve(scene_.systems.size());
  for (std::size_t s = 0; s < scene_.systems.size(); ++s) {
    decomps_.emplace_back(set_.axis, lo, hi, set_.ncalc);
    policies_.push_back(make_lb_policy(set_));
  }
}

void Manager::run(mp::Endpoint& ep) {
  // Protocol instants on the span stream (verbatim labels — tests pin
  // the historical label sequence).
  auto note = [&](std::uint32_t frame, const char* label) {
    tr_.instant(ep.clock(), frame, label);
  };
  std::uint32_t frame = 0;
  if (set_.resume_from) {
    const std::uint32_t f0 = *set_.resume_from;
    // Recoveries completed before the snapshot are baked into it.
    for (const auto& c : set_.fault_plan.crashes) {
      if (c.at_frame <= f0) {
        crash_done_[static_cast<std::size_t>(c.calc)] = 1;
      }
    }
    restore(ep, f0);
    frame = f0 + 1;
  }
  // Suspend bound: validate() guarantees stop_after is a snapshot frame,
  // so the last iteration seals the manifest to resume from. All other
  // gates stay on set_.frames — the executed prefix is bit-identical to
  // the same frames of an uninterrupted run.
  const std::uint32_t end =
      set_.stop_after ? *set_.stop_after + 1 : set_.frames;
  while (frame < end) {
    ep.set_trace_frame(frame);
    ep.charge(env_.cost->frame_overhead_s / env_.rate);
    if (handle_crashes(ep, frame)) continue;  // rolled back; frame rewound
    auto frame_span = tr_.phase(ep.clock(), frame, "frame");
    note(frame, "manager: particle creation");
    {
      auto ph = tr_.phase(ep.clock(), frame, "create");
      create_and_scatter(ep, frame);
    }
    note(frame, "manager: creation scattered");
    {
      auto ph = tr_.phase(ep.clock(), frame, "balance");
      balance(ep, frame);
    }
    note(frame, "manager: new dimensions broadcast");
    if (set_.ckpt.due_after(frame) && frame + 1 < set_.frames) {
      {
        auto ph = tr_.phase(ep.clock(), frame, "snapshot");
        checkpoint_phase(ep, frame);
      }
      note(frame, "checkpoint: manifest sealed");
    }
    frame_span.close();
    ++frame;
  }
}

bool Manager::handle_crashes(mp::Endpoint& ep, std::uint32_t& frame) {
  const auto& plan = set_.fault_plan;
  if (plan.crashes.empty()) return false;
  // Deaths take effect at frame start, in ascending index order, so every
  // role derives the identical recovery sequence.
  std::vector<int> pending;
  for (const auto& c : plan.crashes) {
    if (c.at_frame == frame && !crash_done_[static_cast<std::size_t>(c.calc)]) {
      pending.push_back(c.calc);
    }
  }
  if (pending.empty()) return false;
  std::sort(pending.begin(), pending.end());
  for (const int c : pending) crash_done_[static_cast<std::size_t>(c)] = 1;

  if (set_.ckpt.restarts(frame)) {
    const std::uint32_t f0 = *set_.ckpt.latest_snapshot_before(frame);
    for (const int c : pending) {
      // The dying calculator's last act is an obituary; receiving it
      // stamps the manager's detection after the death in virtual time.
      const mp::Message ob = recv_p(ep, calc_rank(c), kTagCrash);
      mp::Reader r(ob);
      check_control_header(r, "manager liveness check");
      check_frame(r.get<std::uint32_t>(), frame, "manager liveness check");
      tr_.instant(ep.clock(), frame,
                  "recovery: restarting calculator " + std::to_string(c) +
                      " from checkpoint frame " + std::to_string(f0));
    }
    restore(ep, f0);
    frame = f0 + 1;
    return true;
  }

  merge_crashed(ep, frame, pending);
  return false;
}

void Manager::merge_crashed(mp::Endpoint& ep, std::uint32_t frame,
                            const std::vector<int>& dead) {
  // All deaths of this frame are removed from the membership first (a
  // calculator dying now cannot inherit another's domain), then processed
  // in ascending index order.
  for (const int c : dead) alive_[static_cast<std::size_t>(c)] = 0;
  for (const int c : dead) {
    // The dying calculator's last act is an obituary; receiving it stamps
    // the manager's detection after the death in virtual time (the
    // perfect-failure-detector idealization — no timeout rounds modeled).
    const mp::Message ob = recv_p(ep, calc_rank(c), kTagCrash);
    mp::Reader r(ob);
    check_control_header(r, "manager liveness check");
    check_frame(r.get<std::uint32_t>(), frame, "manager liveness check");
    tr_.instant(ep.clock(), frame,
                "recovery: calculator " + std::to_string(c) + " lost");
    const int into = fault::merge_target(alive_, c);
    if (into < 0) {
      throw ProtocolError("manager: no surviving calculator to inherit");
    }
    for (auto& d : decomps_) d.merge_domain(c, into);
    tr_.instant(ep.clock(), frame,
                "recovery: domain of calculator " + std::to_string(c) +
                    " merged into " + std::to_string(into));
  }
  alive_list_.clear();
  for (int c = 0; c < set_.ncalc; ++c) {
    if (alive_[static_cast<std::size_t>(c)]) alive_list_.push_back(c);
  }
}

void Manager::checkpoint_phase(mp::Endpoint& ep, std::uint32_t frame) {
  const double capture_start = ep.clock().now();
  ckpt::SnapshotWriter snap(ckpt::Role::kManager, ep.rank(), frame,
                            set_.seed);
  {
    auto& w = snap.begin_section(ckpt::SectionId::kDecomps);
    w.put<std::uint64_t>(decomps_.size());
    for (const auto& d : decomps_) d.encode(w);
  }
  {
    auto& w = snap.begin_section(ckpt::SectionId::kLbState);
    w.put<std::uint64_t>(policies_.size());
    for (const auto& p : policies_) p->save_state(w);
  }
  {
    auto& w = snap.begin_section(ckpt::SectionId::kTelemetry);
    ckpt::encode_telemetry(w, tel_);
  }
  {
    // Forensics only — virtual clocks are never rolled back on restore.
    auto& w = snap.begin_section(ckpt::SectionId::kClock);
    w.put(ep.clock().now());
  }
  if (set_.obs.flight_recorder && set_.obs.trace) {
    auto& w = snap.begin_section(ckpt::SectionId::kFlightRecorder);
    ckpt::encode_flight_ring(w, set_.obs.trace->rank(ep.rank()),
                             set_.obs.trace->labels());
  }
  std::vector<std::byte> image = snap.finish();
  ep.charge_io(env_.disk.write_s(image.size()));
  metrics_.on_snapshot(ep.clock().now() - capture_start, image.size());
  reported_ = ckpt::ManifestEntry{
      .rank = ep.rank(),
      .bytes = static_cast<std::uint64_t>(image.size()),
      .crc = snap.digest(),
  };
  ckpt::Manifest man;
  man.frame = frame;
  man.entries.push_back(*reported_);
  set_.ckpt_vault->store(ep.rank(), frame, std::move(image));

  // Collect every participant's digest — the image generator, then the
  // calculators that executed this frame, ascending — and seal the
  // manifest. A sealed frame is the coordinator's promise that every rank
  // can restore from it.
  const auto collect = [&](int rank) {
    const mp::Message m = recv_p(ep, rank, kTagCkptDigest);
    mp::Reader r(m);
    check_control_header(r, "manager checkpoint digest");
    check_frame(r.get<std::uint32_t>(), frame, "manager checkpoint digest");
    const auto from = r.get<std::int32_t>();
    if (from != rank) {
      throw ProtocolError("manager: checkpoint digest claims rank " +
                          std::to_string(from) + ", arrived from " +
                          std::to_string(rank));
    }
    const auto bytes = r.get<std::uint64_t>();
    const auto crc = r.get<std::uint32_t>();
    man.entries.push_back(ckpt::ManifestEntry{rank, bytes, crc});
  };
  collect(kImageGenRank);
  for (const int c : alive_list_) collect(calc_rank(c));
  set_.ckpt_vault->seal(std::move(man));
  if (metrics_.reg) {
    metrics_.reg->counter("psanim_ckpt_manifests_sealed_total").inc();
  }
}

void Manager::restore(mp::Endpoint& ep, std::uint32_t f0) {
  if (!set_.ckpt_vault) {
    throw ProtocolError("manager: restart recovery needs a vault");
  }
  if (!reported_) {
    reported_ = ckpt::sealed_entry(*set_.ckpt_vault, ep.rank(), f0);
  }
  const ckpt::SnapshotReader snap = ckpt::open_image(
      *set_.ckpt_vault, *reported_, ckpt::Role::kManager, f0, set_.seed);
  ep.charge_io(env_.disk.read_s(static_cast<std::size_t>(reported_->bytes)));
  {
    auto r = snap.section(ckpt::SectionId::kDecomps);
    const auto n = r.get<std::uint64_t>();
    if (n != decomps_.size()) {
      throw ProtocolError("manager: snapshot decomposition count skew");
    }
    for (auto& d : decomps_) d = Decomposition::decode(r);
  }
  {
    auto r = snap.section(ckpt::SectionId::kLbState);
    const auto n = r.get<std::uint64_t>();
    if (n != policies_.size()) {
      throw ProtocolError("manager: snapshot balancer count skew");
    }
    for (auto& p : policies_) p->load_state(r);
  }
  {
    auto r = snap.section(ckpt::SectionId::kTelemetry);
    tel_ = ckpt::decode_telemetry(r);
  }
  if (set_.obs.trace && snap.has(ckpt::SectionId::kFlightRecorder)) {
    auto r = snap.section(ckpt::SectionId::kFlightRecorder);
    const auto recovered =
        ckpt::decode_flight_ring(r, set_.obs.trace->labels());
    set_.obs.trace->rank(ep.rank()).emit_recovered(recovered);
  }
  refresh_membership(f0 + 1);
  metrics_.on_restore();
  tr_.instant(ep.clock(), f0, "recovery: restored checkpoint");
}

void Manager::refresh_membership(std::uint32_t frame) {
  for (int c = 0; c < set_.ncalc; ++c) {
    alive_[static_cast<std::size_t>(c)] =
        ckpt::calc_dead_at(set_.fault_plan, set_.ckpt, c, frame) ? 0 : 1;
  }
  alive_list_.clear();
  for (int c = 0; c < set_.ncalc; ++c) {
    if (alive_[static_cast<std::size_t>(c)]) alive_list_.push_back(c);
  }
}

void Manager::create_and_scatter(mp::Endpoint& ep, std::uint32_t frame) {
  // One outbox per calculator; each system contributes at most one batch.
  std::vector<std::vector<SystemBatch>> outboxes(
      static_cast<std::size_t>(set_.ncalc));

  for (std::size_t s = 0; s < scene_.systems.size(); ++s) {
    const auto& system = scene_.systems[s];
    // The creation stream depends only on (seed, system, frame): creation
    // is identical no matter how many calculators run (§3.1.3's "creation
    // happens in the same order for all processes").
    Rng rng = base_rng_.derive(0xC0FFEEu, s, frame);
    psys::ActionContext ctx{set_.dt, &rng, 0};
    std::vector<psys::Particle> born;
    for (const psys::Source* src : system.actions().sources()) {
      src->generate(born, ctx);
    }
    ep.charge(
        env_.cost->compute_s(env_.cost->create_cost, born.size(), env_.rate));

    // Partition by owner (§3.2.1: "stored in the structure corresponding
    // to its domain" and sent there). A merged-away (crashed) domain has
    // zero width, so owner_of never routes a particle to a dead rank.
    const Decomposition& d = decomps_[s];
    std::vector<std::vector<psys::Particle>> per_calc(
        static_cast<std::size_t>(set_.ncalc));
    for (const auto& p : born) {
      per_calc[static_cast<std::size_t>(d.owner_of(p.pos.axis(d.axis())))]
          .push_back(p);
    }
    for (int c = 0; c < set_.ncalc; ++c) {
      auto& mine = per_calc[static_cast<std::size_t>(c)];
      if (mine.empty()) continue;
      outboxes[static_cast<std::size_t>(c)].push_back(
          SystemBatch{static_cast<psys::SystemId>(s), std::move(mine)});
    }
  }

  // Every live calculator gets exactly one creation message per frame; an
  // empty batch list is the end-of-transmission marker (§3.2.1).
  for (const int c : alive_list_) {
    ep.send(calc_rank(c), kTagCreate,
            encode_batches(frame, outboxes[static_cast<std::size_t>(c)]));
  }
}

void Manager::balance(mp::Endpoint& ep, std::uint32_t frame) {
  const int n = set_.ncalc;
  // Collect per-system reports from every live calculator (ascending
  // order); dead slots stay empty and are skipped below.
  std::vector<std::vector<LoadEntry>> reports(static_cast<std::size_t>(n));
  for (const int c : alive_list_) {
    reports[static_cast<std::size_t>(c)] =
        decode_load_report(recv_p(ep, calc_rank(c), kTagLoadReport), frame);
  }

  tr_.instant(ep.clock(), frame, "manager: load information received");
  trace::ManagerFrameStats mstats;
  mstats.frame = frame;

  // Per-calculator outgoing orders, accumulated over systems.
  std::vector<std::vector<OrderEntry>> orders_out(
      static_cast<std::size_t>(n));
  std::vector<double> frame_times(static_cast<std::size_t>(n), 0.0);

  const int nalive = static_cast<int>(alive_list_.size());
  for (std::size_t s = 0; s < scene_.systems.size(); ++s) {
    std::vector<lb::CalcLoad> loads;
    loads.reserve(alive_list_.size());
    for (const int c : alive_list_) {
      const LoadEntry& e = reports[static_cast<std::size_t>(c)].at(s);
      loads.push_back(lb::CalcLoad{
          .calc = c,
          .particles = e.particles,
          .time_s = e.time_s,
          .power = calc_powers_.at(static_cast<std::size_t>(c)),
      });
      frame_times[static_cast<std::size_t>(c)] += e.time_s;
    }
    // Evaluation cost: a handful of comparisons per pair.
    ep.charge(env_.cost->compute_s(env_.cost->action_cost,
                                   static_cast<std::size_t>(nalive),
                                   env_.rate));
    mstats.pairs_evaluated +=
        static_cast<std::size_t>(std::max(0, nalive - 1));

    const auto orders = policies_[s]->evaluate(loads);
    lb::observe_balance(env_.metrics, loads, orders);
    for (const auto& o : orders) {
      orders_out[static_cast<std::size_t>(o.calc)].push_back(OrderEntry{
          .system = static_cast<std::uint32_t>(s),
          .is_send = static_cast<std::uint8_t>(o.op == lb::BalanceOp::kSend),
          .partner = o.partner,
          .count = o.count,
      });
      if (o.op == lb::BalanceOp::kSend) {
        ++mstats.balance_orders;
        mstats.particles_ordered += o.count;
      }
    }
  }

  // Imbalance is over the survivors only — a dead slot's zero would
  // otherwise read as a perfectly idle calculator.
  std::vector<double> alive_times;
  alive_times.reserve(alive_list_.size());
  for (const int c : alive_list_) {
    alive_times.push_back(frame_times[static_cast<std::size_t>(c)]);
  }
  if (!alive_times.empty()) {
    mstats.max_calc_time_s =
        *std::max_element(alive_times.begin(), alive_times.end());
    mstats.min_calc_time_s =
        *std::min_element(alive_times.begin(), alive_times.end());
    mstats.imbalance = load_imbalance(alive_times);
  }

  tr_.instant(ep.clock(), frame, "manager: load balancing evaluated");
  // Send orders (possibly empty) to every live calculator — the
  // synchronization point §3.2 requires even when nothing moves.
  for (const int c : alive_list_) {
    ep.send(calc_rank(c), kTagOrders,
            encode_orders(frame, orders_out[static_cast<std::size_t>(c)]));
  }

  // Collect edge proposals from every live calculator (donors fill them
  // in), update the authoritative decompositions, broadcast the new
  // dimensions.
  std::vector<EdgeEntry> changed;
  for (const int c : alive_list_) {
    for (const auto& e :
         decode_edges(recv_p(ep, calc_rank(c), kTagEdgeProposal), frame)) {
      decomps_.at(e.system).set_edge(e.edge_index, e.value);
      changed.push_back(e);
    }
  }
  for (const int c : alive_list_) {
    ep.send(calc_rank(c), kTagDomains, encode_edges(frame, changed));
  }

  tel_.add_manager(mstats);
  metrics_.on_frame(mstats);
}

}  // namespace psanim::core
