#include <gtest/gtest.h>

#include <cmath>

#include "stats/counter.hpp"
#include "stats/running_stats.hpp"
#include "stats/sample_set.hpp"
#include "stats/table.hpp"

namespace mvpn::stats {
namespace {

TEST(Counter, AccumulatesAndResets) {
  Counter c("pkts");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.name(), "pkts");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(PacketByteCounter, RecordsBoth) {
  PacketByteCounter pb;
  pb.record(100);
  pb.record(250);
  EXPECT_EQ(pb.packets.value(), 2u);
  EXPECT_EQ(pb.bytes.value(), 350u);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats whole;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    whole.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(SampleSet, ExactPercentiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100 reversed
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(SampleSet, EmptyPercentileIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(SampleSet, InterleavedAddAndQuery) {
  SampleSet s;
  s.add(5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  s.add(1);
  s.add(9);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
}

TEST(Table, RendersAligned) {
  Table t{"name", "value"};
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Table, RejectsWrongArity) {
  Table t{"a", "b"};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

}  // namespace
}  // namespace mvpn::stats
