#include "core/frame_loop.hpp"

#include <filesystem>
#include <stdexcept>
#include <string>

namespace psanim::core {

void SimSettings::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("SimSettings: " + what);
  };
  if (ncalc <= 0) {
    fail("ncalc must be positive, got " + std::to_string(ncalc));
  }
  if (frames == 0) {
    fail("frames must be positive — a zero-frame animation renders nothing");
  }
  if (!(dt > 0.0f)) {
    fail("dt must be positive, got " + std::to_string(dt));
  }
  if (axis < 0 || axis > 2) {
    fail("axis must be 0, 1 or 2 (x/y/z), got " + std::to_string(axis));
  }
  if (image_width <= 0 || image_height <= 0) {
    fail("image dimensions must be positive, got " +
         std::to_string(image_width) + "x" + std::to_string(image_height));
  }
  if (store_slices == 0) {
    fail("store_slices must be positive — each store needs at least one "
         "sub-domain vector");
  }
  if (phase_timeout_s < 0.0) {
    fail("phase_timeout_s must be >= 0 (0 inherits the runtime timeout), "
         "got " + std::to_string(phase_timeout_s));
  }
  if (ckpt.interval < 0) {
    fail("ckpt.interval must be >= 0 (0 disables checkpointing), got " +
         std::to_string(ckpt.interval));
  }
  if (resume_from) {
    if (!ckpt.enabled()) {
      fail("resume_from requires checkpointing enabled (ckpt.interval > 0) "
           "so replayed recovery decisions match the original run");
    }
    if (*resume_from + 1 >= frames) {
      fail("resume_from frame " + std::to_string(*resume_from) +
           " leaves no frame to execute (frames = " + std::to_string(frames) +
           ")");
    }
    if (!ckpt.due_after(*resume_from)) {
      fail("resume_from frame " + std::to_string(*resume_from) +
           " is not a snapshot frame for interval " +
           std::to_string(ckpt.interval));
    }
  }
  if (stop_after) {
    if (!ckpt.enabled()) {
      fail("stop_after requires checkpointing enabled (ckpt.interval > 0) "
           "— suspending means sealing a checkpoint to resume from");
    }
    if (*stop_after + 1 >= frames) {
      fail("stop_after frame " + std::to_string(*stop_after) +
           " leaves nothing to resume (frames = " + std::to_string(frames) +
           ") — run to completion instead");
    }
    if (!ckpt.due_after(*stop_after)) {
      fail("stop_after frame " + std::to_string(*stop_after) +
           " is not a snapshot frame for interval " +
           std::to_string(ckpt.interval) +
           " — the suspend point must seal a checkpoint");
    }
    if (resume_from && *stop_after <= *resume_from) {
      fail("stop_after frame " + std::to_string(*stop_after) +
           " must lie strictly after resume_from frame " +
           std::to_string(*resume_from));
    }
  }
  if (obs.flight_recorder) {
    if (obs.flight_capacity == 0) {
      fail("obs.flight_recorder with obs.flight_capacity == 0 records "
           "nothing — set a positive ring capacity or disable the recorder");
    }
    if (!obs.tracing()) {
      fail("obs.flight_recorder needs tracing on — supply obs.trace or set "
           "obs.trace_json_path");
    }
  }
  if (!obs.trace_json_path.empty()) {
    const std::filesystem::path p(obs.trace_json_path);
    if (std::filesystem::is_directory(p)) {
      fail("obs.trace_json_path '" + obs.trace_json_path +
           "' is a directory — give a file path for the Chrome trace JSON");
    }
    const std::filesystem::path dir = p.parent_path();
    if (!dir.empty() && !std::filesystem::is_directory(dir)) {
      fail("obs.trace_json_path parent directory '" + dir.string() +
           "' does not exist — create it before the run");
    }
  }
  if (obs.analyzing() && !obs.tracing()) {
    fail("obs.analysis needs tracing on — supply obs.trace or set "
         "obs.trace_json_path");
  }
  if (!obs.analysis_json_path.empty()) {
    const std::filesystem::path p(obs.analysis_json_path);
    if (std::filesystem::is_directory(p)) {
      fail("obs.analysis_json_path '" + obs.analysis_json_path +
           "' is a directory — give a file path for the report JSON");
    }
    const std::filesystem::path dir = p.parent_path();
    if (!dir.empty() && !std::filesystem::is_directory(dir)) {
      fail("obs.analysis_json_path parent directory '" + dir.string() +
           "' does not exist — create it before the run");
    }
  }
}

std::string to_string(SpaceMode m) {
  return m == SpaceMode::kInfinite ? "IS" : "FS";
}

std::string to_string(LbMode m) {
  switch (m) {
    case LbMode::kStatic: return "SLB";
    case LbMode::kDynamicPairwise: return "DLB";
    case LbMode::kDiffusion: return "DIFF";
  }
  return "?";
}

std::string to_string(ImageGenMode m) {
  return m == ImageGenMode::kGatherParticles ? "gather" : "sort-last";
}

std::string to_string(SystemCombine c) {
  return c == SystemCombine::kBundled ? "bundled" : "per-system";
}

std::unique_ptr<lb::LoadBalancer> make_lb_policy(const SimSettings& s) {
  switch (s.lb) {
    case LbMode::kStatic:
      return std::make_unique<lb::StaticLB>();
    case LbMode::kDynamicPairwise:
      return std::make_unique<lb::DynamicPairwiseLB>(s.dlb);
    case LbMode::kDiffusion:
      return std::make_unique<lb::DiffusionLB>(s.diffusion);
  }
  return std::make_unique<lb::StaticLB>();
}

std::pair<float, float> initial_interval(const SimSettings& s,
                                         const Scene& scene) {
  if (s.space == SpaceMode::kInfinite) {
    return {-Aabb::kHuge, Aabb::kHuge};
  }
  return {scene.space.lo.axis(s.axis), scene.space.hi.axis(s.axis)};
}

}  // namespace psanim::core
