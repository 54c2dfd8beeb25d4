// Golden determinism corpus: per-seed framebuffer fingerprints over a
// 16-seed x {snow, fountain} x {static, dynamic-pairwise} grid of small
// parallel runs, plus 16 snow/dynamic-pairwise runs in sort-last mode
// (calculators render partial images that the image generator composites
// over its backdrop).
//
// The corpus file is committed (tests/golden/determinism_corpus.txt) and
// pins the simulation's bit-exact behavior: any change to RNG streams,
// decomposition, exchange ordering, balancing decisions or the renderer
// shows up as a hash mismatch against the checked-in values. CI replays a
// 4-run subset in the fast tier; `check` replays everything.
//
// Usage:
//   golden_corpus generate <corpus-file>
//   golden_corpus check    <corpus-file> [--subset N]
//                          [--exec-mode fibers|threads|both]
//
// `generate` is only rerun deliberately, when a change is *supposed* to
// alter results (new RNG layout, renderer change); the diff then documents
// exactly which cells moved.
//
// A subset of N replays every (cells/N)-th cell; the fast tier's N = 5
// hits the first cell of each of the five blocks.
//
// `--exec-mode both` is the execution-core differential: every replayed
// cell runs under the fiber scheduler AND the thread-per-rank oracle, and
// both emitted lines (framebuffer hash + %.17g makespan) must be
// string-identical to each other and to the committed corpus. CI wires
// this as the determinism.exec_mode_parity fast-tier test.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "mp/runtime.hpp"
#include "render/compare.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace psanim;

constexpr int kSeeds = 16;
constexpr std::uint64_t kSeedBase = 0x5eedULL;

struct Cell {
  std::string scene;  // "snow" | "fountain"
  std::string lb;     // "slb" | "dlb"
  std::uint64_t seed = 0;
  bool sort_last = false;
};

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const char* scene : {"snow", "fountain"}) {
    for (const char* lb : {"slb", "dlb"}) {
      for (int s = 0; s < kSeeds; ++s) {
        cells.push_back({scene, lb, kSeedBase + static_cast<std::uint64_t>(s)});
      }
    }
  }
  for (int s = 0; s < kSeeds; ++s) {
    cells.push_back(
        {"snow", "dlb", kSeedBase + static_cast<std::uint64_t>(s), true});
  }
  return cells;
}

struct RunOut {
  std::uint64_t fb_hash = 0;
  double makespan_s = 0.0;
};

RunOut run_cell(const Cell& cell,
                mp::ExecMode exec_mode = mp::ExecMode::kDefault) {
  sim::ScenarioParams p;
  p.systems = 2;
  p.particles_per_system = 400;
  p.frames = 6;
  const core::Scene scene = cell.scene == "snow" ? sim::make_snow_scene(p)
                                                 : sim::make_fountain_scene(p);
  core::SimSettings settings;
  settings.ncalc = 3;
  settings.frames = p.frames;
  settings.seed = cell.seed;
  settings.image_width = 64;
  settings.image_height = 48;
  settings.lb =
      cell.lb == "slb" ? core::LbMode::kStatic : core::LbMode::kDynamicPairwise;
  if (cell.sort_last) settings.imgen = core::ImageGenMode::kSortLast;

  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), 3, settings.ncalc}};
  cfg.network = net::Interconnect::kMyrinet;
  const auto built = sim::build_cluster(cfg);
  const auto r =
      core::run_parallel(scene, settings, built.spec, built.placement, {},
                         mp::RuntimeOptions{.recv_timeout_s = 30.0,
                                            .exec_mode = exec_mode});
  return {render::hash_framebuffer(r.final_frame), r.animation_s};
}

std::string line_for(const Cell& cell, const RunOut& out) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "scene=%s lb=%s%s seed=%" PRIu64 " fb=%016" PRIx64
                " makespan=%.17g",
                cell.scene.c_str(), cell.lb.c_str(),
                cell.sort_last ? " imgen=sortlast" : "", cell.seed,
                out.fb_hash, out.makespan_s);
  return buf;
}

int generate(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "golden_corpus: cannot write %s\n", path.c_str());
    return 2;
  }
  out << "# psanim golden determinism corpus\n"
      << "# 16 seeds x {snow, fountain} x {slb, dlb}, then 16 seeds of\n"
      << "# snow/dlb in sort-last mode; 2 systems, 400 particles/system,\n"
      << "# 6 frames, ncalc 3, 64x48 frame. Regenerate with:\n"
      << "# golden_corpus generate <this file>\n";
  for (const Cell& cell : grid()) {
    out << line_for(cell, run_cell(cell)) << "\n";
  }
  std::printf("golden_corpus: wrote %zu cells to %s\n", grid().size(),
              path.c_str());
  return 0;
}

int check(const std::string& path, int subset, const std::string& exec_mode) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "golden_corpus: cannot read %s\n", path.c_str());
    return 2;
  }
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') want.push_back(line);
  }
  const auto cells = grid();
  if (want.size() != cells.size()) {
    std::fprintf(stderr,
                 "golden_corpus: corpus has %zu cells, the grid has %zu — "
                 "regenerate it\n",
                 want.size(), cells.size());
    return 2;
  }
  // A subset of N spreads across the grid (every stride-th cell), so even
  // N=4 touches both scenes and both balancing modes.
  const std::size_t n = subset > 0
                            ? std::min<std::size_t>(
                                  static_cast<std::size_t>(subset),
                                  cells.size())
                            : cells.size();
  const std::size_t stride = cells.size() / n;
  std::vector<mp::ExecMode> modes;
  if (exec_mode == "fibers") {
    modes = {mp::ExecMode::kFibers};
  } else if (exec_mode == "threads") {
    modes = {mp::ExecMode::kThreads};
  } else if (exec_mode == "both") {
    modes = {mp::ExecMode::kFibers, mp::ExecMode::kThreads};
  } else if (exec_mode.empty()) {
    modes = {mp::ExecMode::kDefault};
  } else {
    std::fprintf(stderr, "golden_corpus: unknown --exec-mode '%s'\n",
                 exec_mode.c_str());
    return 2;
  }
  int mismatches = 0;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < cells.size(); i += stride) {
    if (replayed >= n) break;
    ++replayed;
    std::string first;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const char* mode_name = modes[m] == mp::ExecMode::kThreads ? "threads"
                              : modes[m] == mp::ExecMode::kFibers
                                  ? "fibers"
                                  : "default";
      const std::string got = line_for(cells[i], run_cell(cells[i], modes[m]));
      if (got != want[i]) {
        ++mismatches;
        std::fprintf(stderr, "MISMATCH cell %zu (%s)\n  want: %s\n  got:  %s\n",
                     i, mode_name, want[i].c_str(), got.c_str());
      }
      // Cross-core differential: the fiber line and the thread line must be
      // the same *string*, not merely both corpus-clean.
      if (m == 0) {
        first = got;
      } else if (got != first) {
        ++mismatches;
        std::fprintf(stderr,
                     "EXEC-MODE DIVERGENCE cell %zu\n  fibers:  %s\n"
                     "  threads: %s\n",
                     i, first.c_str(), got.c_str());
      }
    }
  }
  std::printf("golden_corpus: replayed %zu/%zu cells (%zu mode%s), "
              "%d mismatches\n",
              replayed, cells.size(), modes.size(),
              modes.size() == 1 ? "" : "s", mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: golden_corpus generate <file>\n"
                 "       golden_corpus check <file> [--subset N]\n"
                 "                          [--exec-mode fibers|threads|both]\n");
    return 2;
  };
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const std::string path = argv[2];
  if (mode == "generate") return generate(path);
  if (mode == "check") {
    int subset = 0;
    std::string exec_mode;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--subset") == 0 && i + 1 < argc) {
        subset = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--exec-mode") == 0 && i + 1 < argc) {
        exec_mode = argv[++i];
      }
    }
    return check(path, subset, exec_mode);
  }
  return usage();
}
