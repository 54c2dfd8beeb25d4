#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/wire.hpp"
#include "psys/store.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "render/splat.hpp"

namespace perfbench {

namespace psys = psanim::psys;
namespace core = psanim::core;

double Tally::seconds(double span_overhead_ns) const {
  const double busy = static_cast<double>(ns.load()) -
                      span_overhead_ns * static_cast<double>(calls.load());
  return std::max(0.0, busy) * 1e-9;
}

Tally& PsysTallies::for_action(const char* name) {
  const auto is = [name](const char* n) { return std::strcmp(name, n) == 0; };
  if (is("random-accel")) return random_accel;
  if (is("bounce")) return bounce;
  if (is("gravity")) return gravity;
  if (is("damping")) return damping;
  if (is("kill-old")) return kill_old;
  if (is("move")) return move;
  return other;
}

namespace {

class TimedAction final : public psys::Action {
 public:
  TimedAction(const psys::Action& inner, Tally& tally)
      : inner_(inner), tally_(tally) {}

  const char* name() const override { return inner_.name(); }
  psys::ActionClass cls() const override { return inner_.cls(); }
  double cost_weight() const override { return inner_.cost_weight(); }

  void apply(std::span<psys::Particle> ps,
             psys::ActionContext& ctx) const override {
    const auto t0 = Clock::now();
    inner_.apply(ps, ctx);
    tally_.add(Clock::now() - t0, ps.size());
  }

 private:
  const psys::Action& inner_;
  Tally& tally_;
};

class TimedDomain final : public psys::Domain {
 public:
  TimedDomain(psys::DomainPtr inner, Tally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  psys::DomainKind kind() const override { return inner_->kind(); }
  psanim::Vec3 generate(psanim::Rng& rng) const override {
    const auto t0 = Clock::now();
    const psanim::Vec3 v = inner_->generate(rng);
    tally_.add(Clock::now() - t0, 1);
    return v;
  }
  bool within(psanim::Vec3 p) const override { return inner_->within(p); }
  psys::SurfaceHit surface(psanim::Vec3 p) const override {
    return inner_->surface(p);
  }
  psanim::Aabb bounds() const override { return inner_->bounds(); }

 private:
  psys::DomainPtr inner_;
  Tally& tally_;
};

template <typename F>
double median_of(int reps, F&& once) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) v.push_back(once());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

psanim::mp::Message as_message(psanim::mp::Writer w) {
  psanim::mp::Message m;
  m.payload = psanim::mp::Payload(w.take());
  return m;
}

}  // namespace

core::Scene instrument(const core::Scene& scene, PsysTallies& tallies) {
  core::Scene out;
  out.space = scene.space;
  out.look_center = scene.look_center;
  out.look_radius = scene.look_radius;
  for (const auto& sys : scene.systems) {
    psys::ActionList list;
    for (const auto& action : sys.actions()) {
      if (const auto* src = dynamic_cast<const psys::Source*>(action.get())) {
        psys::Source::Params p = src->params();
        p.position_domain = std::make_shared<TimedDomain>(
            p.position_domain, tallies.position_domain);
        p.velocity_domain = std::make_shared<TimedDomain>(
            p.velocity_domain, tallies.velocity_domain);
        list.add<psys::Source>(std::move(p));
      } else {
        list.append(std::make_unique<TimedAction>(
            *action, tallies.for_action(action->name())));
      }
    }
    out.systems.emplace_back(sys.name(), std::move(list));
  }
  return out;
}

double measure_span_overhead_ns() {
  return median_of(101, [] {
    constexpr int kPairs = 1000;
    Clock::duration sum{};
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = Clock::now();
      sum += Clock::now() - t0;
    }
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(sum)
                   .count()) /
           kPairs;
  });
}

ProbeRates probe_rates(const std::vector<std::vector<psys::Particle>>& particles,
                       const core::Scene& scene,
                       const core::SimSettings& settings, int reps) {
  std::vector<psys::Particle> all;
  std::vector<core::SystemBatch> batches;
  for (std::size_t s = 0; s < particles.size(); ++s) {
    all.insert(all.end(), particles[s].begin(), particles[s].end());
    batches.push_back({static_cast<psys::SystemId>(s), particles[s]});
  }
  ProbeRates r;
  if (all.empty()) return r;
  const double n = static_cast<double>(all.size());

  std::vector<core::RenderVertex> decoded;
  r.frame_vertex_ns = median_of(reps, [&] {
    const auto t0 = Clock::now();
    std::vector<core::RenderVertex> verts;
    verts.reserve(all.size());
    for (const auto& p : all) verts.push_back(core::to_render_vertex(p));
    decoded = core::decode_frame_vertices(
        as_message(core::encode_frame_vertices(0, verts)), 0);
    return ns_since(t0) / n;
  });

  r.exchange_codec_ns = median_of(reps, [&] {
    const auto t0 = Clock::now();
    const auto back =
        core::decode_batches(as_message(core::encode_batches(0, batches)), 0);
    const double ns = ns_since(t0);
    if (back.size() != batches.size()) throw std::logic_error("codec probe");
    return ns / n;
  });

  float lo = all.front().pos.x;
  float hi = lo;
  for (const auto& p : all) {
    lo = std::min(lo, p.pos.x);
    hi = std::max(hi, p.pos.x);
  }
  psys::SlicedStore store(0, lo, hi + 1e-3f, settings.store_slices);
  store.insert_batch(all);
  r.snapshot_ns = median_of(reps, [&] {
    const auto t0 = Clock::now();
    const auto snap = store.snapshot();
    const double ns = ns_since(t0);
    if (snap.size() != store.size()) throw std::logic_error("snapshot probe");
    return ns / n;
  });

  const auto cam = psanim::render::Camera::framing(
      scene.look_center, scene.look_radius, settings.image_width,
      settings.image_height);
  psanim::render::Framebuffer fb(settings.image_width, settings.image_height);
  r.splat_ns = median_of(reps, [&] {
    fb.clear({0, 0, 0});
    const auto t0 = Clock::now();
    psanim::render::splat_points(
        fb, cam, std::span<const core::RenderVertex>(decoded),
        psanim::render::BlendMode::kAdditive);
    return ns_since(t0) / n;
  });
  return r;
}

}  // namespace perfbench
