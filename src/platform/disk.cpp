#include "platform/disk.hpp"

namespace psanim::platform {

DiskModel DiskModel::pfs(int stripes) {
  const double n = stripes > 0 ? static_cast<double>(stripes) : 1.0;
  DiskModel base = scratch_hdd();
  // Striping multiplies sustained bandwidth; the issue latency stays (one
  // metadata round trip per operation).
  return {base.read_bps * n, base.write_bps * n, base.seek_s};
}

}  // namespace psanim::platform
