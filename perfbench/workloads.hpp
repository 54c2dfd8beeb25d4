#pragma once

// The benchmark's three workloads behind one interface: setup() builds a
// pass's inputs (timed as setup_s), run() drains them (timed as wall_s and
// cpu_s), and after a traced run() layers() reports the per-layer raw
// values and the seed-independent output oracle.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered (key, JSON value) pairs; values are already JSON-formatted so
/// exact outputs survive to the checker digit for digit.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string json_num(double v);
std::string json_uint(std::uint64_t v);
std::string json_hex(std::uint64_t v);
std::string json_str(const std::string& s);
std::string json_object(const Fields& f);

struct PassOutput {
  /// The outputs the checker compares exactly: across passes, against the
  /// traced pass and against the recorded reference for the seed.
  Fields fingerprint;
  std::uint64_t attempted = 0;  ///< operations (a sim pass; a farm job)
  std::uint64_t failed = 0;     ///< sim: pass threw; farm: failed/cancelled
  std::uint64_t jobs = 0;       ///< animations completed
};

/// Verdict of a check that needs no recorded reference (the sequential
/// population for the sims, standalone re-runs for the farm).
struct Oracle {
  bool ok = true;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build one pass's inputs. `traced` selects the instrumented scenes.
  virtual void setup(bool traced) = 0;
  /// Drain the inputs setup() built. Throws on a failed run.
  virtual PassOutput run(bool traced) = 0;
  /// After a traced run(): raw per-layer values (names as in
  /// BENCHMARK.json, or raw inputs the checker derives them from).
  virtual Fields layers(double span_overhead_ns, Oracle& oracle) = 0;
  /// Exact Σ over frames of live particles, known after a traced run().
  virtual std::uint64_t particle_updates() const = 0;
};

/// Names: snow_fs_dlb, fountain_is_dlb, farm_stream. `tmp_dir` receives
/// the farm journal. Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmp_dir);

}  // namespace perfbench
