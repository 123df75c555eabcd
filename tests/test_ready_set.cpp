// sim::ReadySet: the engine's FIFO-linked, cost-row-bucketed ready set.
#include "sim/ready_set.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace apt::sim {
namespace {

using RowId = ReadySet::RowId;

/// The per-row FIFO walk of `row`, materialised.
std::vector<dag::NodeId> row_walk(const ReadySet& rs, RowId row) {
  std::vector<dag::NodeId> out;
  for (dag::NodeId s = rs.row_front(row); s != dag::kInvalidNode;
       s = rs.row_next(s))
    out.push_back(s);
  return out;
}

/// The FIFO walk via front()/next().
std::vector<dag::NodeId> fifo_walk(const ReadySet& rs) {
  std::vector<dag::NodeId> out;
  for (dag::NodeId s = rs.front(); s != dag::kInvalidNode; s = rs.next(s))
    out.push_back(s);
  return out;
}

/// A set over 3 processors with two rows: A = {1, 2, 3}, B = {4, 1, 9}.
struct TwoRows {
  ReadySet rs{3};
  RowId a;
  RowId b;
  TwoRows() {
    const TimeMs ra[] = {1.0, 2.0, 3.0};
    const TimeMs rb[] = {4.0, 1.0, 9.0};
    a = rs.intern_row(ra);
    b = rs.intern_row(rb);
    rs.resize(10);
  }
  void ready(dag::NodeId slot, RowId row) {
    rs.set_row(slot, row);
    rs.insert(slot);
  }
};

TEST(ReadySet, InternsBitwiseEqualRowsOnce) {
  ReadySet rs(3);
  const TimeMs r1[] = {5.0, 2.5, 7.0};
  const TimeMs r1_copy[] = {5.0, 2.5, 7.0};
  const TimeMs r2[] = {5.0, 2.5, 7.000000000000001};
  const RowId a = rs.intern_row(r1);
  EXPECT_EQ(rs.intern_row(r1_copy), a);
  const RowId b = rs.intern_row(r2);
  EXPECT_NE(b, a);
  EXPECT_EQ(rs.row_count(), 2u);
  EXPECT_EQ(rs.exec_row(a)[2], 7.0);
  EXPECT_EQ(rs.min_exec(a), 2.5);
  EXPECT_EQ(rs.min_proc(a), 1u);
}

TEST(ReadySet, InterningIsBitwiseNotNumeric) {
  // 0.0 == -0.0 numerically but they are different rows; a NaN row is
  // bitwise equal to itself.
  ReadySet rs(2);
  const TimeMs pos[] = {0.0, 1.0};
  const TimeMs neg[] = {-0.0, 1.0};
  const TimeMs nan[] = {std::numeric_limits<TimeMs>::quiet_NaN(), 1.0};
  const RowId p = rs.intern_row(pos);
  const RowId n = rs.intern_row(neg);
  EXPECT_NE(p, n);
  EXPECT_TRUE(std::signbit(rs.exec_row(n)[0]));
  EXPECT_EQ(rs.intern_row(nan), rs.intern_row(nan));
  EXPECT_EQ(rs.row_count(), 3u);
}

TEST(ReadySet, MinimumTiesGoToTheLowestProcessor) {
  ReadySet rs(4);
  const TimeMs row[] = {3.0, 1.0, 1.0, 2.0};
  const RowId r = rs.intern_row(row);
  EXPECT_EQ(rs.min_exec(r), 1.0);
  EXPECT_EQ(rs.min_proc(r), 1u);
}

TEST(ReadySet, KeepsFifoOrderAcrossRows) {
  TwoRows t;
  t.ready(5, t.a);
  t.ready(2, t.b);
  t.ready(7, t.a);
  t.ready(0, t.b);
  EXPECT_EQ(fifo_walk(t.rs), (std::vector<dag::NodeId>{5, 2, 7, 0}));
  EXPECT_EQ(row_walk(t.rs, t.a), (std::vector<dag::NodeId>{5, 7}));
  EXPECT_EQ(row_walk(t.rs, t.b), (std::vector<dag::NodeId>{2, 0}));
  EXPECT_LT(t.rs.seq(5), t.rs.seq(2));
  EXPECT_LT(t.rs.seq(2), t.rs.seq(7));
  EXPECT_LT(t.rs.seq(7), t.rs.seq(0));
  EXPECT_EQ(t.rs.size(), 4u);
  EXPECT_EQ(t.rs.active_rows().size(), 2u);
}

TEST(ReadySet, ErasesFromMidBucket) {
  TwoRows t;
  for (dag::NodeId s : {1, 2, 3, 4, 5}) t.ready(s, t.a);
  t.ready(6, t.b);
  t.rs.erase(3);
  EXPECT_FALSE(t.rs.contains(3));
  EXPECT_EQ(row_walk(t.rs, t.a), (std::vector<dag::NodeId>{1, 2, 4, 5}));
  EXPECT_EQ(fifo_walk(t.rs), (std::vector<dag::NodeId>{1, 2, 4, 5, 6}));
  t.rs.erase(1);  // head
  t.rs.erase(6);  // tail (of the FIFO)
  EXPECT_EQ(fifo_walk(t.rs), (std::vector<dag::NodeId>{2, 4, 5}));
  EXPECT_EQ(t.rs.front(), 2u);
  t.rs.erase(5);  // tail of the bucket
  EXPECT_EQ(row_walk(t.rs, t.a), (std::vector<dag::NodeId>{2, 4}));
  EXPECT_EQ(t.rs.size(), 2u);
}

TEST(ReadySet, BucketEmptiesAndReactivates) {
  TwoRows t;
  t.ready(1, t.a);
  t.ready(2, t.b);
  t.rs.erase(1);
  ASSERT_EQ(t.rs.active_rows().size(), 1u);
  EXPECT_EQ(t.rs.active_rows()[0], t.b);
  EXPECT_EQ(t.rs.row_front(t.a), dag::kInvalidNode);
  // Re-activating a row puts its newcomer behind every older kernel.
  t.ready(3, t.a);
  EXPECT_EQ(t.rs.active_rows().size(), 2u);
  EXPECT_EQ(row_walk(t.rs, t.a), (std::vector<dag::NodeId>{3}));
  EXPECT_EQ(fifo_walk(t.rs), (std::vector<dag::NodeId>{2, 3}));
  t.rs.erase(2);
  t.rs.erase(3);
  EXPECT_TRUE(t.rs.empty());
  EXPECT_TRUE(t.rs.active_rows().empty());
  EXPECT_EQ(t.rs.front(), dag::kInvalidNode);
}

TEST(ReadySet, SlotsAreReusedAfterRetirement) {
  // An instance retires: its slots leave the set, are rebound to another
  // row by the next tenant, and come back ready with a fresh stamp.
  TwoRows t;
  t.ready(0, t.a);
  t.ready(1, t.a);
  const std::uint64_t old_seq = t.rs.seq(0);
  t.rs.erase(0);
  t.rs.erase(1);
  t.rs.set_row(0, ReadySet::kNoRow);
  t.rs.set_row(1, ReadySet::kNoRow);
  EXPECT_FALSE(t.rs.contains(0));
  t.ready(4, t.a);
  t.ready(0, t.b);  // the recycled slot, now in the other row
  EXPECT_TRUE(t.rs.contains(0));
  EXPECT_EQ(t.rs.row_of(0), t.b);
  EXPECT_GT(t.rs.seq(0), old_seq);
  EXPECT_EQ(fifo_walk(t.rs), (std::vector<dag::NodeId>{4, 0}));
  EXPECT_EQ(row_walk(t.rs, t.a), (std::vector<dag::NodeId>{4}));
  EXPECT_EQ(row_walk(t.rs, t.b), (std::vector<dag::NodeId>{0}));
}

TEST(ReadySet, ContainsIsFalseBeyondTheSlotArrays) {
  TwoRows t;
  EXPECT_FALSE(t.rs.contains(9));
  EXPECT_FALSE(t.rs.contains(10));
  EXPECT_FALSE(t.rs.contains(dag::kInvalidNode));
}

}  // namespace
}  // namespace apt::sim
