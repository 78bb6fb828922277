#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
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

// Ordering property: seeded random runs against a reference model that
// fires the pending set in sorted (time, seq) order. Ties are heavy (eight
// lattice delays plus the open instants themselves), more instants are
// open at once than the scheduler's tail cache holds, handlers schedule at
// now() and at other open instants, cancels hit the first, a middle and
// the last event of an instant, run_until() and run() are cut mid-instant
// by stop(), and draining runs free the storage before the next round
// regrows it. Every fire and every step checks the fired event and
// pending() against the model. It catches a scheduler that appends to an
// evicted, older bucket of a time while a newer one is open (later events
// fire too early), and one that keeps a drained bucket's tail cached
// (events chained onto a freed node never fire).
class OrderingModel {
 public:
  explicit OrderingModel(std::uint64_t seed) : rng_(seed) {}

  void round() {
    const auto fresh = rng_.uniform_int(1, 40);
    for (std::int64_t i = 0; i < fresh; ++i) schedule(pick_time());
    if (rng_.bernoulli(0.3)) cancel_some();
    if (rng_.bernoulli(0.2)) cancel_stale();
    stop_requested_ = false;
    if (rng_.bernoulli(0.6)) {
      const SimTime t_end = sched_.now() + rng_.uniform_int(0, 40);
      sched_.run_until(t_end);
      if (stop_requested_) {
        if (!model_.empty() && model_.begin()->first == sched_.now()) {
          ++stats.stopped_mid_instant;
        }
      } else {
        expect(model_.empty() || model_.begin()->first > t_end,
               "run_until left an event at or before t_end");
        expect(sched_.now() == t_end, "run_until did not reach t_end");
      }
    } else {
      // Half the runs drain: handlers stop feeding the queue (beyond an
      // occasional event at now()) and never stop().
      draining_ = rng_.bernoulli(0.5);
      sched_.run();
      draining_ = false;
      if (!stop_requested_) {
        ++stats.drains;
        expect(model_.empty(), "run() returned with events pending");
        expect(sched_.node_pool_size() == 0 && sched_.heap_capacity() == 0,
               "a draining run() kept its storage");
      }
    }
    expect(sched_.pending() == model_.size(), "pending() after a step");
  }

  struct Stats {
    std::uint64_t fired = 0;
    std::uint64_t ties = 0;  ///< events scheduled at an already open instant
    std::uint64_t cancels[3] = {0, 0, 0};  ///< first, middle, last
    std::uint64_t stale_cancels = 0;
    std::uint64_t stopped_mid_instant = 0;
    std::uint64_t drains = 0;
    std::size_t max_open_instants = 0;
  } stats;
  std::uint64_t mismatches = 0;
  const char* first_mismatch = nullptr;

 private:
  struct Fire {
    OrderingModel* model;
    std::uint64_t seq;
    void operator()() const { model->on_fire(seq); }
  };
  struct Event {
    EventId id;
    SimTime time;
    bool live;
  };
  static constexpr SimTime kLattice[] = {1, 2, 3, 5, 8, 13, 21, 34};
  static constexpr std::size_t kPendingCap = 3000;

  void expect(bool ok, const char* what) {
    if (ok) return;
    ++mismatches;
    if (first_mismatch == nullptr) first_mismatch = what;
  }

  SimTime pick_time() {
    // Open instants are never in the past unless the scheduler lost an
    // event; lower_bound keeps that a model mismatch, not a throw.
    auto it = open_.lower_bound(sched_.now());
    const auto open = std::distance(it, open_.end());
    if (open > 0 && rng_.bernoulli(0.5)) {
      std::advance(it, rng_.uniform_int(0, open - 1));
      return it->first;
    }
    if (rng_.bernoulli(0.2)) return sched_.now();
    const auto last = static_cast<std::int64_t>(std::size(kLattice)) - 1;
    return sched_.now() + kLattice[rng_.uniform_int(0, last)];
  }

  void schedule(SimTime t) {
    const std::uint64_t seq = events_.size();
    if (open_.count(t) != 0) ++stats.ties;
    events_.push_back(Event{sched_.schedule_at(t, Fire{this, seq}), t, true});
    model_.emplace(t, seq);
    ++open_[t];
    stats.max_open_instants = std::max(stats.max_open_instants, open_.size());
  }

  void forget(std::uint64_t seq) {
    Event& e = events_[seq];
    e.live = false;
    model_.erase({e.time, seq});
    if (--open_[e.time] == 0) open_.erase(e.time);
  }

  // Cancel the first, a middle or the last pending event of one instant.
  void cancel_some() {
    if (open_.empty()) return;
    auto it = open_.begin();
    std::advance(it, rng_.uniform_int(
                         0, static_cast<std::int64_t>(open_.size()) - 1));
    std::vector<std::uint64_t> at;
    for (auto m = model_.lower_bound({it->first, 0});
         m != model_.end() && m->first == it->first; ++m) {
      at.push_back(m->second);
    }
    const auto where = rng_.uniform_int(0, 2);
    const std::size_t idx = where == 0   ? 0
                            : where == 1 ? at.size() / 2
                                         : at.size() - 1;
    ++stats.cancels[where];
    sched_.cancel(events_[at[idx]].id);
    forget(at[idx]);
    if (rng_.bernoulli(0.3)) sched_.cancel(events_[at[idx]].id);  // twice
  }

  // A handle whose event already fired or was cancelled: an exact no-op.
  void cancel_stale() {
    if (events_.empty()) return;
    const auto seq = static_cast<std::uint64_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(events_.size()) - 1));
    if (events_[seq].live) return;
    ++stats.stale_cancels;
    sched_.cancel(events_[seq].id);
  }

  void on_fire(std::uint64_t seq) {
    ++stats.fired;
    expect(!model_.empty() &&
               *model_.begin() == std::make_pair(sched_.now(), seq),
           "an event fired out of (time, seq) order");
    if (!events_[seq].live) {
      expect(false, "a cancelled event fired");
      return;
    }
    forget(seq);
    expect(sched_.pending() == model_.size(), "pending() inside a handler");
    if (draining_) {
      if (rng_.bernoulli(0.2)) schedule(sched_.now());
      return;
    }
    if (model_.size() < kPendingCap) {
      const auto now_n = rng_.uniform_int(0, 2);
      for (std::int64_t i = 0; i < now_n; ++i) schedule(sched_.now());
      const auto other = rng_.uniform_int(0, 2);
      for (std::int64_t i = 0; i < other; ++i) schedule(pick_time());
    }
    if (rng_.bernoulli(0.1)) cancel_some();
    if (rng_.bernoulli(0.02)) {
      stop_requested_ = true;
      sched_.stop();
    }
  }

  Scheduler sched_;
  Rng rng_;
  std::vector<Event> events_;  ///< by model seq (order of scheduling)
  std::set<std::pair<SimTime, std::uint64_t>> model_;  ///< pending
  std::map<SimTime, std::size_t> open_;  ///< pending events per instant
  bool stop_requested_ = false;
  bool draining_ = false;
};

TEST(Scheduler, RandomRunsMatchSortedReferenceModel) {
  OrderingModel::Stats total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    OrderingModel model(seed);
    for (int r = 0; r < 150; ++r) model.round();
    ASSERT_EQ(model.mismatches, 0u)
        << "seed " << seed << ": " << model.first_mismatch;
    const OrderingModel::Stats& s = model.stats;
    total.fired += s.fired;
    total.ties += s.ties;
    for (int i = 0; i < 3; ++i) total.cancels[i] += s.cancels[i];
    total.stale_cancels += s.stale_cancels;
    total.stopped_mid_instant += s.stopped_mid_instant;
    total.drains += s.drains;
    total.max_open_instants =
        std::max(total.max_open_instants, s.max_open_instants);
  }
  // The runs reach every shape the property is about.
  EXPECT_GT(total.fired, 50'000u);
  EXPECT_GT(total.ties, total.fired / 4);
  EXPECT_GT(total.max_open_instants, 8u);  // twice the tail cache
  for (const std::uint64_t c : total.cancels) EXPECT_GT(c, 100u);
  EXPECT_GT(total.stale_cancels, 100u);
  EXPECT_GT(total.stopped_mid_instant, 10u);
  EXPECT_GT(total.drains, 100u);
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
