#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sim/engine_observer.hpp"
#include "sim/epoch_barrier.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mvpn::sim {

/// Conservative parallel discrete-event driver.
///
/// Each shard (lane) is one Scheduler advanced in lock-step windows. The
/// safety argument (INTERNALS.md §9, §11): with every cross-shard
/// interaction delayed by at least `lookahead`, an event executed at time
/// u can only create remote work at times >= u + lookahead, so any window
/// ending before min(u) + lookahead can be exchanged at the barrier —
/// before any lane enters the next window — and the work always lands
/// ahead of its execution time. No lane ever receives an event in its
/// past, which is exactly the serial causality guarantee; combined with
/// each Scheduler's (time, insertion-seq) order and a deterministic
/// exchange order, the parallel run replays the serial event history.
///
/// N lanes run on N threads. The thread that calls run_until() is lane 0
/// and the coordinator; lanes 1..N-1 each get a peer thread, started by
/// the first run_until() and parked between calls. Every window the
/// caller opens the barrier for the peers, runs lane 0's slice inline
/// under ShardGuard(lane 0), waits for the peers to arrive, then — as
/// kNoShard, every lane at rest — runs the exchange, the observer's
/// coordinator hook and any global actions due.
///
/// Window sizing is adaptive: between windows the coordinator reads each
/// lane's next pending event time and extends the window to next_min +
/// lookahead - 1 — never narrower than the static frontier + lookahead
/// bound, and when every lane is idle past the target the window jumps
/// straight to it. Quiet stretches (converged control plane, sparse
/// flows) therefore cost barriers proportional to *events*, not to
/// elapsed simulated time.
///
/// The engine itself is topology-agnostic: cross-shard traffic moves
/// through the `exchange` hook (net::ShardRuntime drains its staging and
/// schedules deliveries there), and anything that must observe a globally
/// consistent instant — metrics snapshots, leftover events on the serial
/// "global" scheduler — registers as a global action executed between
/// windows, when all lanes rest at the same time.
///
/// One lane is the same loop with no peers, no barrier and no exchange.
/// Nothing crosses a cut, so its lookahead is unbounded and each window
/// ends at min(t_end, next global instant - 1): global actions keep the
/// tick-before-data edge they have under N lanes.
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

  /// Coordinator-side hook run at every barrier, on the calling thread
  /// after all lanes reached the window end passed in: move cross-shard
  /// work now.
  void set_exchange(std::function<void(SimTime window_end)> fn) {
    exchange_ = std::move(fn);
  }

  /// Epoch-level instrumentation tap (obs::SyncProfiler). Must be set
  /// before the first run_until() — peers latch it at thread start.
  /// Null (the default) keeps the loops free of clock reads: the only
  /// residual cost is a few untaken branches per epoch.
  void set_observer(EngineObserver* obs) { observer_ = obs; }

  /// Run `fn(at)` between windows at `at` = `first`, `first + period`,
  /// ... — each invocation sees every shard past all events before that
  /// instant and none at or after it (the serial tick-before-data
  /// convention). Shard clocks then read `at - 1`, so an action that
  /// stamps its output takes the instant from the argument.
  void add_periodic_action(SimTime first, SimTime period,
                           std::function<void(SimTime at)> fn);

  /// Drive all shards (and global actions) to exactly `t_end`. May be
  /// called repeatedly with increasing times; peers persist in between.
  /// What a lane's events throw is rethrown here once every peer has
  /// arrived (the lowest lane's first error), and again on every later
  /// call: the engine cannot be resumed after a lane failed.
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

 private:
  struct Action {
    SimTime at = 0;
    SimTime period = 0;  ///< 0: one-shot
    std::function<void(SimTime)> fn;
  };

  void peer(std::uint32_t lane);
  void run_slice(std::uint32_t lane, std::uint64_t epoch, SimTime target,
                 EngineObserver::WorkerEpoch& we) noexcept;
  void run_window(EngineObserver::CoordinatorEpoch& ce);
  [[nodiscard]] std::uint64_t stamp() const noexcept;
  [[nodiscard]] SimTime next_global_time() const;
  void fire_global(SimTime at);
  void rethrow_lane_error() const;

  std::vector<ShardRef> shards_;
  /// How far past a lane's next event a window may reach plus one: the
  /// lookahead, unbounded with one lane.
  SimTime span_;
  Scheduler* global_;
  EngineObserver* observer_ = nullptr;
  std::function<void(SimTime)> exchange_;
  std::vector<Action> actions_;  ///< small; scanned linearly

  EpochBarrier barrier_;  ///< parties: the N-1 peers
  /// First error of each lane, written by the lane's own thread during a
  /// window and read by the coordinator after the barrier.
  std::vector<std::exception_ptr> lane_errors_;
  std::uint64_t windows_ = 0;
  std::uint64_t widened_windows_ = 0;
  std::uint64_t idle_jumps_ = 0;
  SimTime frontier_ = 0;  ///< all shards have completed events <= frontier_
  std::vector<std::thread> peers_;  ///< lanes 1..N-1, once started
};

}  // namespace mvpn::sim
