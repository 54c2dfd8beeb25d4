#pragma once

// Storage model: per-node disk read/write bandwidth plus a per-operation
// seek/issue latency.
//
// Checkpoint images were free to store and fetch before this model
// existed, which made every checkpoint-interval study optimistic: the
// vault stands in for a parallel filesystem or a node-local scratch disk,
// and on 2005-era clusters writing a multi-megabyte snapshot was often
// *the* cost of a small interval. A DiskModel turns each vault store and
// fetch into virtual seconds the owning rank is charged:
//
//     write(bytes) = seek + bytes / write_bandwidth
//     read(bytes)  = seek + bytes / read_bandwidth
//
// The default model is free (all fields zero), so existing runs — and the
// golden determinism corpus — are bit-identical unless the cluster spec's
// platform description opts into a real disk with a `;disk:` clause.

#include <cstddef>

namespace psanim::platform {

struct DiskModel {
  /// Sustained read bandwidth in bytes/s; <= 0 means free (no charge).
  double read_bps = 0.0;
  /// Sustained write bandwidth in bytes/s; <= 0 means free (no charge).
  double write_bps = 0.0;
  /// Fixed per-operation latency (head seek, RPC issue) in seconds.
  double seek_s = 0.0;

  /// True when this model charges nothing — the historical behavior.
  bool free() const {
    return read_bps <= 0.0 && write_bps <= 0.0 && seek_s <= 0.0;
  }

  double read_s(std::size_t bytes) const {
    if (free()) return 0.0;
    double t = seek_s;
    if (read_bps > 0.0) t += static_cast<double>(bytes) / read_bps;
    return t;
  }

  double write_s(std::size_t bytes) const {
    if (free()) return 0.0;
    double t = seek_s;
    if (write_bps > 0.0) t += static_cast<double>(bytes) / write_bps;
    return t;
  }

  /// No disk model: reads and writes are free (the pre-platform behavior).
  static DiskModel none() { return {}; }
  /// 2005-era local scratch disk: ~50 MB/s sequential, ~8 ms seek.
  static DiskModel scratch_hdd() { return {50e6, 45e6, 8e-3}; }
  /// NFS over Fast-Ethernet: the wire is the bottleneck, RPC round trip.
  static DiskModel nfs() { return {10e6, 8e6, 2e-3}; }
  /// Striped parallel filesystem: `stripes` scratch disks in parallel.
  static DiskModel pfs(int stripes);
};

}  // namespace psanim::platform
