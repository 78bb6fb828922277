#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine_observer.hpp"
#include "sim/epoch_barrier.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mvpn::sim {

/// Conservative parallel discrete-event driver.
///
/// Each shard is one Scheduler advanced by a dedicated worker thread in
/// lock-step windows. The safety argument (INTERNALS.md §9, §11): with
/// every cross-shard interaction delayed by at least `lookahead`, an
/// event executed at time u can only create remote work at times >=
/// u + lookahead, so any window ending before min(u) + lookahead can be
/// exchanged at the barrier — before any shard enters the next window —
/// and the work always lands ahead of its execution time. No shard ever
/// receives an event in its past, which is exactly the serial causality
/// guarantee; combined with each Scheduler's (time, insertion-seq) order
/// and a deterministic exchange order, the parallel run replays the serial
/// event history.
///
/// Window sizing is adaptive: at every barrier the coordinator (workers
/// parked, queues stable) reads each shard's next pending event time and
/// extends the window to next_min + lookahead - 1 — never narrower than
/// the static frontier + lookahead bound, and when every shard is idle
/// past the target the window jumps straight to it. Quiet stretches
/// (converged control plane, sparse flows) therefore cost barriers
/// proportional to *events*, not to elapsed simulated time.
///
/// The engine itself is topology-agnostic: cross-shard traffic moves
/// through the `exchange` hook (net::ShardRuntime drains its channels and
/// schedules deliveries there), and anything that must observe a globally
/// consistent instant — metrics snapshots, leftover events on the serial
/// "global" scheduler — registers as a global action executed between
/// windows, when all shards rest at the same time.
///
/// One shard is the serial engine: no worker thread is started, the
/// barrier is never opened and the exchange never runs. run_until()
/// advances the shard inline in windows bounded only by the next global
/// instant - 1 and `t_end`, so global actions keep the same
/// tick-before-data edge they have under K shards, and the lookahead is
/// irrelevant (nothing crosses a cut).
class ParallelEngine {
 public:
  struct ShardRef {
    std::uint32_t id = 0;
    Scheduler* scheduler = nullptr;
  };

  /// With two or more shards `lookahead` must be >= 1 ns (the minimum
  /// cross-shard latency). `global` (optional) is the serial scheduler
  /// whose residual events — anything not owned by a shard — run between
  /// windows at exact times; it must not be one of the shard schedulers.
  ParallelEngine(std::vector<ShardRef> shards, SimTime lookahead,
                 Scheduler* global);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Coordinator-side hook run inside every barrier, after all shards
  /// reached the window end passed in: move cross-shard work now.
  void set_exchange(std::function<void(SimTime window_end)> fn) {
    exchange_ = std::move(fn);
  }

  /// Epoch-level instrumentation tap (obs::SyncProfiler). Must be set
  /// before the first run_until() — workers latch it at thread start.
  /// Null (the default) keeps the hot loop free of clock reads: the only
  /// residual cost is one untaken branch per epoch.
  void set_observer(EngineObserver* obs) { observer_ = obs; }
  [[nodiscard]] EngineObserver* observer() const noexcept {
    return observer_;
  }

  /// Run `fn(at)` between windows at `at` = `first`, `first + period`,
  /// ... — each invocation sees every shard past all events before that
  /// instant and none at or after it (the serial tick-before-data
  /// convention). Shard clocks then read `at - 1`, so an action that
  /// stamps its output takes the instant from the argument.
  void add_periodic_action(SimTime first, SimTime period,
                           std::function<void(SimTime at)> fn);

  /// Drive all shards (and global actions) to exactly `t_end`. May be
  /// called repeatedly with increasing times; workers persist in between.
  void run_until(SimTime t_end);

  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  /// Windows the adaptive sizing stretched past the static frontier +
  /// lookahead bound (quiet shards let the window jump to the next event).
  [[nodiscard]] std::uint64_t widened_windows() const noexcept {
    return widened_windows_;
  }
  /// Windows where every shard was idle past the target and the window
  /// jumped straight to it (the degenerate best case of widening).
  [[nodiscard]] std::uint64_t idle_jumps() const noexcept {
    return idle_jumps_;
  }
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct Action {
    SimTime at = 0;
    SimTime period = 0;  ///< 0: one-shot
    std::function<void(SimTime)> fn;
  };

  void run_inline(SimTime t_end);
  void worker(ShardRef shard);
  void start_workers();
  [[nodiscard]] SimTime next_global_time() const;
  void fire_global(SimTime at);
  void rethrow_worker_error();

  std::vector<ShardRef> shards_;
  SimTime lookahead_;
  Scheduler* global_;
  EngineObserver* observer_ = nullptr;
  std::function<void(SimTime)> exchange_;
  std::vector<Action> actions_;  ///< small; scanned linearly

  EpochBarrier barrier_;
  std::vector<std::thread> threads_;
  bool workers_running_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t widened_windows_ = 0;
  std::uint64_t idle_jumps_ = 0;
  SimTime frontier_ = 0;  ///< all shards have completed events <= frontier_

  std::mutex error_mutex_;
  std::exception_ptr worker_error_;
};

}  // namespace mvpn::sim
