// Tests for the trace module: telemetry aggregation, tables and CSV.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "trace/csv.hpp"
#include "trace/table.hpp"
#include "trace/telemetry.hpp"

namespace psanim::trace {
namespace {

CalcFrameStats calc_stats(std::uint32_t frame, int rank, std::size_t held,
                          double calc_s, std::size_t crossers = 0,
                          std::uint64_t bytes = 0) {
  CalcFrameStats s;
  s.frame = frame;
  s.rank = rank;
  s.particles_held = held;
  s.calc_s = calc_s;
  s.crossers_out = crossers;
  s.exchange_bytes = bytes;
  return s;
}

TEST(Telemetry, FrameCountSpansRoles) {
  Telemetry t;
  t.add_calc(calc_stats(4, 2, 10, 0.1));
  ImageFrameStats is;
  is.frame = 7;
  t.add_image(is);
  EXPECT_EQ(t.frame_count(), 8u);
  EXPECT_EQ(Telemetry{}.frame_count(), 0u);
}

TEST(Telemetry, CrosserAverages) {
  Telemetry t;
  t.add_calc(calc_stats(0, 2, 10, 0.1, /*crossers=*/100, /*bytes=*/1000));
  t.add_calc(calc_stats(0, 3, 10, 0.1, 300, 3000));
  t.add_calc(calc_stats(1, 2, 10, 0.1, 200, 2000));
  t.add_calc(calc_stats(1, 3, 10, 0.1, 400, 4000));
  EXPECT_DOUBLE_EQ(t.avg_crossers_per_proc_per_frame(), 250.0);
  EXPECT_DOUBLE_EQ(t.avg_exchange_bytes_per_frame(), 5000.0);
}

TEST(Telemetry, ImbalanceSeriesPerFrame) {
  Telemetry t;
  t.add_calc(calc_stats(0, 2, 0, 3.0));
  t.add_calc(calc_stats(0, 3, 0, 1.0));
  t.add_calc(calc_stats(1, 2, 0, 2.0));
  t.add_calc(calc_stats(1, 3, 0, 2.0));
  const auto series = t.imbalance_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 1.5);
  EXPECT_DOUBLE_EQ(series[1], 1.0);
}

TEST(Telemetry, BalanceTotalsAndMerge) {
  Telemetry a, b;
  ManagerFrameStats m;
  m.frame = 0;
  m.balance_orders = 2;
  m.particles_ordered = 500;
  a.add_manager(m);
  b.add_calc(calc_stats(0, 2, 42, 0.1));
  a.merge(b);
  EXPECT_EQ(a.total_balance_orders(), 2u);
  EXPECT_EQ(a.total_balance_particles(), 500u);
  EXPECT_EQ(a.held_stats().count(), 1u);
  EXPECT_DOUBLE_EQ(a.held_stats().mean(), 42.0);
}

TEST(Table, AlignsAndFormats) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.23456, 2)});
  t.add_row({"a-much-longer-name", "x"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("|----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.14159, 0), "3");
}

TEST(Csv, EscapesSpecials) {
  CsvWriter w({"a", "b"});
  w.add_row({"plain", "with,comma"});
  w.add_row({"with\"quote", "with\nnewline"});
  const std::string s = w.str();
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Csv, SavesToDisk) {
  CsvWriter w({"x"});
  w.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/psanim_test.csv";
  w.save(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::remove(path.c_str());
}

TEST(Csv, RejectsWrongArityAndBadPath) {
  CsvWriter w({"a"});
  EXPECT_THROW(w.add_row({"1", "2"}), std::invalid_argument);
  EXPECT_THROW(w.save("/no/such/dir/f.csv"), std::runtime_error);
}

}  // namespace
}  // namespace psanim::trace
