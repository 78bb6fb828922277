#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mvpn::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_EQ(kSecond, 1'000'000'000);
  EXPECT_EQ(kMillisecond * 1000, kSecond);
}

TEST(Time, TransmissionTime) {
  // 1500 bytes at 12 kb/s = 1 s.
  EXPECT_EQ(transmission_time(1500, 12'000.0), kSecond);
  // 125 bytes at 1 Mb/s = 1 ms.
  EXPECT_EQ(transmission_time(125, 1e6), kMillisecond);
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
  EXPECT_EQ(sched.executed_count(), 3u);
}

TEST(Scheduler, SimultaneousEventsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, HandlersCanScheduleMore) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1, [&] {
    ++fired;
    sched.schedule_in(1, [&] { ++fired; });
  });
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), 2);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  const EventId id = sched.schedule_at(5, [&] { ++fired; });
  sched.schedule_at(3, [&] { ++fired; });
  sched.cancel(id);
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(10, [&] { ++fired; });
  sched.schedule_at(20, [&] { ++fired; });
  sched.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 15);
  sched.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, StopAbortsRun) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1, [&] {
    ++fired;
    sched.stop();
  });
  sched.schedule_at(2, [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RejectsPastAndNegative) {
  Scheduler sched;
  sched.schedule_at(10, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.schedule_in(-1, [] {}), std::invalid_argument);
}

TEST(Scheduler, PendingExcludesCancelled) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1, [] {});
  sched.schedule_at(2, [] {});
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
}

// Regression: cancelling an EventId whose event already fired used to leave
// a stale entry in the cancelled set, making pending() wrap below zero.
TEST(Scheduler, CancelAfterFireIsExactNoop) {
  Scheduler sched;
  int fired = 0;
  const EventId id = sched.schedule_at(1, [&] { ++fired; });
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  sched.cancel(id);  // stale handle: the event is long gone
  EXPECT_EQ(sched.pending(), 0u);
  sched.schedule_at(2, [&] { ++fired; });
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, DoubleCancelCountsOnce) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1, [] {});
  sched.schedule_at(2, [] {});
  sched.cancel(a);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
}

// A stale handle must not be able to kill a newer event that happens to
// recycle the same node slot.
TEST(Scheduler, StaleCancelCannotKillRecycledSlot) {
  Scheduler sched;
  int fired = 0;
  const EventId a = sched.schedule_at(1, [&] { ++fired; });
  sched.run();
  const EventId b = sched.schedule_at(2, [&] { ++fired; });
  EXPECT_EQ(b.slot, a.slot);  // the pool reuses the freed slot
  EXPECT_NE(b.seq, a.seq);
  sched.cancel(a);  // stale — must not touch b
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.pending(), 0u);
}

// A run() that drains the queue gives back the burst's storage: the node
// pool and the heap are freed, and the scheduler stays usable.
TEST(Scheduler, DrainingRunFreesPoolAndHeap) {
  Scheduler sched;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) sched.schedule_at(i, [&] { ++fired; });
  EXPECT_GE(sched.node_pool_size(), 1000u);
  sched.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sched.node_pool_size(), 0u);
  EXPECT_EQ(sched.heap_capacity(), 0u);
  sched.schedule_in(5, [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1001);
  EXPECT_EQ(sched.now(), 1004);
}

// run() cut short by stop() and run_until() with events still pending keep
// their storage: the pending events live in it.
TEST(Scheduler, RunWithEventsLeftKeepsStorage) {
  Scheduler sched;
  sched.schedule_at(1, [&] { sched.stop(); });
  sched.schedule_at(2, [] {});
  sched.run();
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_GT(sched.node_pool_size(), 0u);
  EXPECT_GT(sched.heap_capacity(), 0u);

  sched.schedule_at(50, [] {});
  sched.run_until(10);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_GT(sched.node_pool_size(), 0u);
  EXPECT_GT(sched.heap_capacity(), 0u);
}

// Handles issued before the drain's release stay exact no-ops: whether
// the pool is still empty or has regrown over the same slots.
TEST(Scheduler, CancelOfHandleFromBeforeReleaseIsNoop) {
  Scheduler sched;
  int fired = 0;
  const EventId early = sched.schedule_at(1, [&] { ++fired; });
  const EventId dead = sched.schedule_at(2, [&] { ++fired; });
  sched.cancel(dead);
  sched.run();
  ASSERT_EQ(sched.node_pool_size(), 0u);
  sched.cancel(early);  // out of range of the freed pool
  sched.cancel(dead);
  EXPECT_EQ(sched.pending(), 0u);

  const EventId a = sched.schedule_at(3, [&] { ++fired; });
  const EventId b = sched.schedule_at(4, [&] { ++fired; });
  EXPECT_EQ(a.slot, early.slot);  // the regrown pool reuses both slots
  EXPECT_EQ(b.slot, dead.slot);
  sched.cancel(early);
  sched.cancel(dead);
  EXPECT_EQ(sched.pending(), 2u);
  sched.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, RunUntilSkipsCancelledHeadWithoutAdvancingTime) {
  Scheduler sched;
  int fired = 0;
  const EventId dead = sched.schedule_at(5, [&] { ++fired; });
  sched.schedule_at(30, [&] { ++fired; });
  sched.cancel(dead);
  sched.run_until(20);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), 20);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until(40);
  EXPECT_EQ(fired, 1);
}

// The node pool must not grow under the timer churn pattern (schedule,
// cancel, re-arm) — cancelled entries are reclaimed lazily but fully.
TEST(Scheduler, CancelRearmChurnKeepsPoolBounded) {
  Scheduler sched;
  int expired = 0;
  for (int i = 0; i < 10'000; ++i) {
    const EventId timer = sched.schedule_in(1000, [&] { ++expired; });
    sched.cancel(timer);
    sched.schedule_in(1, [] {});
    sched.run_until(sched.now() + 2);
  }
  EXPECT_EQ(expired, 0);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_LE(sched.node_pool_size(), 4u);
}

TEST(Scheduler, ManySimultaneousEventsKeepInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  sched.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, RandomTimesFireInNondecreasingOrder) {
  Scheduler sched;
  Rng rng(42);
  std::vector<SimTime> fire_times;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<SimTime>(rng.uniform_int(0, 1'000'000));
    sched.schedule_at(t, [&sched, &fire_times] {
      fire_times.push_back(sched.now());
    });
  }
  sched.run();
  ASSERT_EQ(fire_times.size(), 5000u);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
  }
  EXPECT_EQ(sched.executed_count(), 5000u);
}

TEST(InlineCallable, SmallCaptureStaysInline) {
  struct Small {
    int* counter;
    void operator()() { ++*counter; }
  };
  static_assert(sim::InlineCallable::fits_inline<Small>);
  int n = 0;
  InlineCallable fn = Small{&n};
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(n, 1);
}

TEST(InlineCallable, MoveOnlyCaptureWorks) {
  auto owned = std::make_unique<int>(41);
  InlineCallable fn = [p = std::move(owned)] { ++*p; };
  InlineCallable moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
}

TEST(InlineCallable, LargeCaptureFallsBackToHeap) {
  struct Big {
    char padding[128] = {};
    int* counter = nullptr;
    void operator()() { ++*counter; }
  };
  static_assert(!sim::InlineCallable::fits_inline<Big>);
  int n = 0;
  Big big;
  big.counter = &n;
  InlineCallable fn = big;
  InlineCallable moved = std::move(fn);
  moved();
  EXPECT_EQ(n, 1);
}

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamsAreIndependentButReproducible) {
  Rng s1 = Rng::stream(7, 1);
  Rng s1_again = Rng::stream(7, 1);
  Rng s2 = Rng::stream(7, 2);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r(31);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ParetoLowerBound) {
  Rng r(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(r.pareto(1.5, 2.0), 1.5);
  }
}

}  // namespace
}  // namespace mvpn::sim
