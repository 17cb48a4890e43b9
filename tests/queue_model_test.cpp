#include <gtest/gtest.h>

#include <vector>

#include "numasim/queue_model.hpp"

namespace numaprof::numasim {
namespace {

TEST(QueueModel, FirstRequestInEpochHasNoDelay) {
  QueueModel q(4);
  EXPECT_EQ(q.enqueue(0), 0u);
  EXPECT_EQ(q.enqueue(5000), 0u);  // fresh epoch
}

TEST(QueueModel, BackToBackRequestsQueue) {
  QueueModel q(4);
  EXPECT_EQ(q.enqueue(0), 0u);
  EXPECT_EQ(q.enqueue(0), 4u);   // behind one request
  EXPECT_EQ(q.enqueue(0), 8u);   // behind two
}

TEST(QueueModel, ElapsedTimeDrainsBacklog) {
  QueueModel q(4);
  q.enqueue(0);
  q.enqueue(0);
  // At t=6 the 2-request backlog (8 cycles) has partially drained.
  EXPECT_EQ(q.enqueue(6), 2u);
  // Fully drained later in the same epoch.
  EXPECT_EQ(q.enqueue(100), 0u);
}

TEST(QueueModel, OrderInsensitiveAcrossEpochs) {
  // Two interleavings of the same timestamp multiset produce identical
  // total delay when the timestamps fall in distinct epochs.
  const std::vector<Cycles> forward = {100, 2000, 4000};
  const std::vector<Cycles> backward = {4000, 2000, 100};
  QueueModel a(4), b(4);
  Cycles total_a = 0, total_b = 0;
  for (const Cycles t : forward) total_a += a.enqueue(t);
  for (const Cycles t : backward) total_b += b.enqueue(t);
  EXPECT_EQ(total_a, total_b);
}

TEST(QueueModel, StatsAccumulate) {
  QueueModel q(4);
  q.enqueue(0);
  q.enqueue(0);
  EXPECT_EQ(q.requests(), 2u);
  EXPECT_EQ(q.max_delay(), 4u);
  q.reset_stats();
  EXPECT_EQ(q.requests(), 0u);
  EXPECT_EQ(q.max_delay(), 0u);
}

TEST(QueueModel, ZeroServiceClampedToOne) {
  QueueModel q(0);
  EXPECT_EQ(q.service(), 1u);
}

// Property: delay never exceeds (same-epoch demand) * service.
class QueueLoad : public ::testing::TestWithParam<int> {};

TEST_P(QueueLoad, DelayBoundedBySameEpochDemand) {
  const int burst = GetParam();
  QueueModel q(4);
  Cycles max_delay = 0;
  for (int i = 0; i < burst; ++i) {
    max_delay = std::max(max_delay, q.enqueue(10));
  }
  EXPECT_LE(max_delay, static_cast<Cycles>(burst) * 4);
  if (static_cast<Cycles>(burst - 1) * 4 > 10) {
    EXPECT_GE(max_delay, static_cast<Cycles>(burst - 1) * 4 - 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Bursts, QueueLoad,
                         ::testing::Values(1, 2, 8, 64, 256));

// Closed-loop property: when the "thread" stalls for the returned delay,
// per-request delay stabilizes instead of growing without bound.
TEST(QueueModel, ClosedLoopSelfLimits) {
  QueueModel q(4, 1024);
  Cycles clock = 0;
  Cycles last_delay = 0;
  for (int i = 0; i < 10000; ++i) {
    last_delay = q.enqueue(clock);
    clock += 10 + last_delay;  // thread pays its own queueing delay
  }
  EXPECT_LT(last_delay, 4096u);  // bounded by ~the epoch span, not runaway
}

}  // namespace
}  // namespace numaprof::numasim
