#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mvpn::sim {

/// Instrumentation tap for ParallelEngine. The sim layer cannot see the
/// obs stack (layering: obs links sim, not the reverse), so the engine
/// publishes per-epoch phase records through this interface and
/// obs::SyncProfiler implements it one layer up.
///
/// Threads — the half the implementation must honour. The thread that
/// calls ParallelEngine::run_until() runs lane 0 and coordinates; lanes
/// 1..N-1 run on peer threads. net::ShardRuntime sets no observer on a
/// one-lane engine: it reports that run as one serial phase.
///  - on_worker_epoch() runs on the lane's own thread, once per epoch,
///    after the lane's slice executed: lane 0's on the calling thread
///    before it waits for the peers, a peer's before its arrive(). What
///    the implementation writes there is therefore ordered before the
///    coordinator's reads after wait_all_arrived() — by program order for
///    lane 0, by the barrier's release/acquire edge for a peer — with no
///    extra synchronization. Per-lane state written here must be owned by
///    that lane.
///  - on_coordinator_epoch() runs on the calling thread between windows
///    (peers parked, lane 0 outside its ShardGuard), after the exchange
///    hook for the same epoch. Reading lane-owned state there is race-free
///    for the same reason the engine's own adaptive-window reads are.
///
/// All timing fields are raw std::chrono::steady_clock nanoseconds; the
/// consumer normalizes. Hooks must not throw and must not touch the
/// engine or schedulers.
class EngineObserver {
 public:
  /// One lane's view of one epoch. Lane 0 opens the window rather than
  /// waiting for it: its wait is the open() call and it never parks.
  struct WorkerEpoch {
    std::uint32_t shard = 0;
    std::uint64_t epoch = 0;       ///< barrier epoch number
    SimTime window_start = 0;      ///< previous frontier (shard clock before)
    SimTime window_end = 0;        ///< target the coordinator published
    std::uint64_t begin_ns = 0;    ///< steady-clock stamp entering the wait
    std::uint64_t wait_ns = 0;     ///< blocked in EpochBarrier::next() (peers)
    std::uint64_t exec_ns = 0;     ///< inside Scheduler::run_until()
    std::uint64_t events = 0;      ///< events executed this epoch
    bool parked = false;           ///< the wait outlived the spin and parked
  };

  /// The coordinator's view of the same epoch. Its wait is lane 0's: from
  /// the end of lane 0's slice until the last peer arrived.
  struct CoordinatorEpoch {
    std::uint64_t epoch = 0;
    SimTime window_start = 0;
    SimTime window_end = 0;
    std::uint64_t begin_ns = 0;  ///< steady-clock stamp entering the wait
    std::uint64_t wait_ns = 0;   ///< blocked in wait_all_arrived()
    bool parked = false;
    bool widened = false;    ///< adaptive sizing stretched past the static bound
    bool idle_jump = false;  ///< every shard idle past target; window jumped
  };

  virtual ~EngineObserver() = default;

  virtual void on_worker_epoch(const WorkerEpoch& e) noexcept = 0;
  virtual void on_coordinator_epoch(const CoordinatorEpoch& e) noexcept = 0;
};

}  // namespace mvpn::sim
