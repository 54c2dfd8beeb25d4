#include "ckpt/replayer.hpp"

#include <cstring>

#include "core/wire.hpp"

namespace psanim::ckpt {

namespace {

bool same_image(const render::Framebuffer& a, const render::Framebuffer& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  const auto& ca = a.colors();
  const auto& cb = b.colors();
  return ca.size() == cb.size() &&
         std::memcmp(ca.data(), cb.data(),
                     ca.size() * sizeof(render::Color)) == 0;
}

}  // namespace

Replayer::Replayer(const core::Scene& scene, const core::SimSettings& settings,
                   const cluster::ClusterSpec& spec,
                   const cluster::Placement& placement,
                   const cluster::CostModel& cost,
                   mp::RuntimeOptions rt_options)
    : scene_(scene),
      set_(settings),
      spec_(spec),
      placement_(placement),
      cost_(cost),
      rt_options_(rt_options) {}

ReplayReport Replayer::verify(const Vault& vault,
                              std::uint32_t snapshot_frame,
                              const render::Framebuffer& expected) const {
  ReplayReport rep;
  rep.snapshot_frame = snapshot_frame;

  const auto man = vault.manifest(snapshot_frame);
  if (!man) {
    rep.detail = "no sealed manifest for frame " +
                 std::to_string(snapshot_frame);
    return rep;
  }
  rep.manifest_complete = true;

  for (const auto& e : man->entries) {
    const Role role = e.rank == core::kManagerRank    ? Role::kManager
                      : e.rank == core::kImageGenRank ? Role::kImageGen
                                                      : Role::kCalculator;
    try {
      (void)open_image(vault, e, role, snapshot_frame, set_.seed);
    } catch (const SnapshotError& err) {
      rep.detail = err.what();
      return rep;
    }
  }
  rep.images_verified = true;

  // Resume in a scratch copy: replayed frames re-capture snapshots, and
  // the oracle must leave the audited vault untouched.
  Vault scratch(vault);
  core::SimSettings resumed = set_;
  resumed.resume_from = snapshot_frame;
  resumed.ckpt_vault = &scratch;
  const core::ParallelResult result = core::run_parallel(
      scene_, resumed, spec_, placement_, cost_, rt_options_);
  rep.frames_replayed = set_.frames - (snapshot_frame + 1);
  rep.framebuffer_identical = same_image(result.final_frame, expected);
  if (!rep.framebuffer_identical) {
    rep.detail = "resumed run's final framebuffer differs from the original";
  }
  return rep;
}

}  // namespace psanim::ckpt
