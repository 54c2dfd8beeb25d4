#pragma once

// gtest printers and a test-name generator for the farm's parameter
// types, so parameterized farm suites list as "GetParam() = fifo" or
// "GetParam() = policy=priority easy_backfill=1 ..." instead of a raw
// byte dump of the enum or options struct.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "farm/farm.hpp"
#include "farm/job.hpp"

namespace psanim::farm {

inline void PrintTo(Policy p, std::ostream* os) { *os << to_string(p); }

inline void PrintTo(const FarmOptions& o, std::ostream* os) {
  *os << "policy=" << to_string(o.policy)
      << " easy_backfill=" << o.easy_backfill
      << " victims=" << to_string(o.victim_selection)
      << " preempt_interval=" << o.preempt_interval
      << " half_life_s=" << o.fair_share.half_life_s;
}

/// Names a Policy-parameterized test after its policy ("fifo", "sjf",
/// "priority", "fair_share").
inline std::string policy_test_name(
    const ::testing::TestParamInfo<Policy>& info) {
  std::string name = to_string(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

}  // namespace psanim::farm
