#include "core/image_generator.hpp"

#include <span>
#include <string>

#include "ckpt/snapshot.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/vault.hpp"
#include "obs/trace.hpp"
#include "render/image_io.hpp"
#include "render/objects.hpp"
#include "render/splat.hpp"

namespace psanim::core {

render::Framebuffer draw_backdrop(const Scene& scene,
                                  const render::Camera& cam) {
  render::Framebuffer fb(cam.width(), cam.height());
  fb.clear({0.02f, 0.02f, 0.03f});
  render::draw_ground_grid(fb, cam, scene.space.lo.y, scene.look_radius * 1.2f,
                           16, {0.18f, 0.2f, 0.22f});
  return fb;
}

ImageGenerator::ImageGenerator(const SimSettings& settings, const Scene& scene,
                               RoleEnv env)
    : set_(settings),
      scene_(scene),
      env_(env),
      cam_(render::Camera::framing(scene.look_center, scene.look_radius,
                                   settings.image_width,
                                   settings.image_height)),
      backdrop_(draw_backdrop(scene, cam_)),
      fb_(settings.image_width, settings.image_height),
      crash_done_(static_cast<std::size_t>(settings.ncalc), 0),
      tr_(settings.obs.trace, kImageGenRank),
      metrics_{env.metrics} {}

void ImageGenerator::render_externals(mp::Endpoint& ep) {
  // §3.2.4: rendering external objects is the image generator's job. The
  // backdrop holds them already drawn; the frame starts as a copy of it.
  fb_ = backdrop_;
  // Charge roughly one splat per grid-line pixel.
  const auto px = static_cast<std::size_t>(
      34 * std::max(set_.image_width, set_.image_height));
  ep.charge(env_.cost->compute_s(env_.cost->render_cost, px, env_.rate));
}

void ImageGenerator::write_frame_if_due(std::uint32_t frame) const {
  if (set_.frame_dir.empty() || set_.write_every == 0) return;
  if (frame % set_.write_every != 0) return;
  render::write_ppm(fb_, set_.frame_dir + "/frame_" + std::to_string(frame) +
                             ".ppm");
}

void ImageGenerator::run(mp::Endpoint& ep) {
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
  // Suspend bound (see Manager::run): capture the stop_after snapshot,
  // then exit. Snapshot/ack gates stay on set_.frames.
  const std::uint32_t end =
      set_.stop_after ? *set_.stop_after + 1 : set_.frames;
  while (frame < end) {
    ep.set_trace_frame(frame);
    if (handle_crashes(ep, frame)) continue;  // rolled back; frame rewound
    // Membership under the shared fault plan + recovery policy: gather
    // only from (and ack only to) calculators executing this frame.
    // Alive-at-f is a superset of every later frame's consumers, so no
    // ack a survivor waits for is ever withheld.
    const std::vector<int> alive =
        ckpt::alive_for_exec(set_.fault_plan, set_.ckpt, frame, set_.ncalc);
    ep.charge(env_.cost->frame_overhead_s / env_.rate);
    auto frame_span = tr_.phase(ep.clock(), frame, "frame");
    render_externals(ep);

    trace::ImageFrameStats is;
    is.frame = frame;
    const double t0 = ep.clock().now();
    auto render_span = tr_.phase(ep.clock(), frame, "render");

    if (set_.imgen == ImageGenMode::kGatherParticles) {
      for (const int c : alive) {
        const mp::Message m =
            ep.recv_within(calc_rank(c), kTagFrame, set_.phase_timeout_s);
        is.gather_bytes += m.wire_bytes();
        // Splat straight from the payload, one stack-sized chunk at a
        // time, in payload order (the additive blend sums in that order).
        const FrameVertexView verts(m, frame);
        verts.for_each_chunk([&](std::span<const RenderVertex> chunk) {
          splat_points(fb_, cam_, chunk, render::BlendMode::kAdditive);
        });
        ep.charge(env_.cost->compute_s(env_.cost->render_cost, verts.size(),
                                       env_.rate));
        is.particles_rendered += verts.size();
      }
    } else {
      // Sort-last: composite per-calculator partial images.
      for (const int c : alive) {
        const mp::Message m = ep.recv_within(calc_rank(c), kTagFramePart,
                                             set_.phase_timeout_s);
        is.gather_bytes += m.wire_bytes();
        mp::Reader r(m);
        check_frame(r.get<std::uint32_t>(), frame, "image part");
        const auto colors = r.get_vector<render::Color>();
        if (colors.size() != fb_.pixel_count()) {
          throw ProtocolError("image part has wrong pixel count");
        }
        auto& out = fb_.mutable_colors();
        for (std::size_t i = 0; i < out.size(); ++i) out[i] += colors[i];
        // Composite cost: one add per pixel, cheaper than a splat.
        ep.charge(env_.cost->compute_s(env_.cost->render_cost * 0.25,
                                       colors.size(), env_.rate));
      }
    }

    render_span.close();
    is.render_s = ep.clock().now() - t0;
    is.frame_complete_time = ep.clock().now();
    tr_.instant(ep.clock(), frame,
                "image generator: image generation complete");
    tel_.add_image(is);
    metrics_.on_frame(is);
    write_frame_if_due(frame);

    // Release the calculators' next frame sends (rendezvous completion).
    if (frame + 1 < set_.frames) {
      auto ph = tr_.phase(ep.clock(), frame, "frame-barrier");
      for (const int c : alive) {
        ep.send_empty(calc_rank(c), kTagFrameAck);
      }
    }
    if (set_.ckpt.due_after(frame) && frame + 1 < set_.frames) {
      auto ph = tr_.phase(ep.clock(), frame, "snapshot");
      capture(ep, frame);
    }
    frame_span.close();
    ++frame;
  }
}

bool ImageGenerator::handle_crashes(mp::Endpoint& ep, std::uint32_t& frame) {
  const auto& plan = set_.fault_plan;
  if (plan.crashes.empty()) return false;
  bool pending = false;
  for (const auto& c : plan.crashes) {
    if (c.at_frame == frame && !crash_done_[static_cast<std::size_t>(c.calc)]) {
      crash_done_[static_cast<std::size_t>(c.calc)] = 1;
      pending = true;
    }
  }
  if (!pending || !set_.ckpt.restarts(frame)) return false;
  const std::uint32_t f0 = *set_.ckpt.latest_snapshot_before(frame);
  restore(ep, f0);
  frame = f0 + 1;
  return true;
}

void ImageGenerator::capture(mp::Endpoint& ep, std::uint32_t frame) {
  const double capture_start = ep.clock().now();
  ckpt::SnapshotWriter snap(ckpt::Role::kImageGen, ep.rank(), frame,
                            set_.seed);
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
  set_.ckpt_vault->store(ep.rank(), frame, std::move(image));
  mp::Writer w;
  put_control_header(w);
  w.put(frame);
  w.put<std::int32_t>(ep.rank());
  w.put(reported_->bytes);
  w.put(reported_->crc);
  ep.send(kManagerRank, kTagCkptDigest, std::move(w));
}

void ImageGenerator::restore(mp::Endpoint& ep, std::uint32_t f0) {
  if (!set_.ckpt_vault) {
    throw ProtocolError("image generator: restart recovery needs a vault");
  }
  if (!reported_) {
    reported_ = ckpt::sealed_entry(*set_.ckpt_vault, ep.rank(), f0);
  }
  const ckpt::SnapshotReader snap = ckpt::open_image(
      *set_.ckpt_vault, *reported_, ckpt::Role::kImageGen, f0, set_.seed);
  ep.charge_io(env_.disk.read_s(static_cast<std::size_t>(reported_->bytes)));
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
  metrics_.on_restore();
  tr_.instant(ep.clock(), f0, "recovery: restored checkpoint");
}

}  // namespace psanim::core
