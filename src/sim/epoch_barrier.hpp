#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "sim/time.hpp"

namespace mvpn::sim {

/// Rendezvous between the coordinator — the thread that calls
/// ParallelEngine::run_until(), which also runs lane 0 — and the N-1 peer
/// threads that run the other lanes.
///
/// The coordinator publishes an epoch — "run your lane up to time T" —
/// runs its own slice, then blocks until every peer reports back; peers
/// block between epochs. The wait fast paths are lock-free: the epoch
/// counter and the arrival count are atomics, and a thread expecting the
/// others within microseconds spins a bounded number of iterations before
/// parking on a mutex/condvar. The parties are the peers; the coordinator
/// needs a core of its own beside them, so spinning is on only when the
/// machine has more hardware threads than parties (N lanes on N hardware
/// threads may spin). With fewer, burning the core the awaited thread
/// needs would turn every window into a scheduling quantum, so every wait
/// parks at once.
///
/// Wakeups still go through the mutex: the notifier takes (and drops) the
/// lock before notifying, so a parked waiter either re-checks its
/// predicate after the notifier's unlock (mutex order makes the new epoch
/// or arrival visible) or was never parked and sees the atomic in its
/// spin. That empty critical section is once per *epoch*, not once per
/// peer.
///
/// Memory-order contract (what ShardRuntime's plain staging vectors lean
/// on): a peer's writes before arrive() happen-before the coordinator's
/// reads after wait_all_arrived() (release fetch_add / acquire load on
/// `arrived_`), and the coordinator's writes before open() happen-before
/// a peer's reads after next() (release store / acquire load on
/// `epoch_`). Epoch-counted waits mean a party that oversleeps a notify
/// still sees the epoch it missed.
class EpochBarrier {
 public:
  explicit EpochBarrier(std::uint32_t parties)
      : parties_(parties),
        // The coordinator and every party each want a core during the
        // rendezvous; with fewer hardware threads, spinning steals cycles
        // from the very thread being waited on.
        spin_limit_(std::thread::hardware_concurrency() > parties ? 2048
                                                                  : 0) {}

  /// Explicit spin budget, overriding the hardware-concurrency heuristic.
  /// Tests use this to force the spin fast path on hosts where the
  /// heuristic would disable it (and vice versa).
  EpochBarrier(std::uint32_t parties, std::uint32_t spin_limit)
      : parties_(parties), spin_limit_(spin_limit) {}

  EpochBarrier(const EpochBarrier&) = delete;
  EpochBarrier& operator=(const EpochBarrier&) = delete;

  /// Coordinator: publish the next window [.., target] and wake the peers.
  void open(SimTime target) {
    target_.store(target, std::memory_order_relaxed);
    arrived_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    // Order the notify after any peer that checked the epoch under the
    // lock and decided to park (a peer holds the mutex from predicate
    // check through blocking, so this cannot interleave between the two).
    { const std::lock_guard<std::mutex> guard(mutex_); }
    cv_open_.notify_all();
  }

  /// Coordinator: block until every peer has arrive()d for this epoch.
  /// `parked` (optional) reports whether the wait outlived the spin budget
  /// and fell through to the condvar.
  void wait_all_arrived(bool* parked = nullptr) {
    if (parked != nullptr) *parked = false;
    for (std::uint32_t i = 0; i < spin_limit_; ++i) {
      if (arrived_.load(std::memory_order_acquire) == parties_) return;
    }
    if (parked != nullptr) *parked = true;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] {
      return arrived_.load(std::memory_order_acquire) == parties_;
    });
  }

  /// Coordinator: wake every peer with the quit flag; next() returns false.
  void shutdown() {
    quit_.store(true, std::memory_order_release);
    { const std::lock_guard<std::mutex> guard(mutex_); }
    cv_open_.notify_all();
  }

  /// Peer: block for an epoch newer than `seen_epoch` (updated on
  /// return), yielding its target time. Returns false on shutdown.
  /// `parked` (optional) reports a fall-through to the condvar path.
  bool next(std::uint64_t& seen_epoch, SimTime& target,
            bool* parked = nullptr) {
    if (parked != nullptr) *parked = false;
    for (std::uint32_t i = 0; i < spin_limit_; ++i) {
      if (quit_.load(std::memory_order_acquire)) return false;
      const std::uint64_t e = epoch_.load(std::memory_order_acquire);
      if (e != seen_epoch) {
        seen_epoch = e;
        target = target_.load(std::memory_order_relaxed);
        return true;
      }
    }
    if (parked != nullptr) *parked = true;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_open_.wait(lock, [&, this] {
      return quit_.load(std::memory_order_acquire) ||
             epoch_.load(std::memory_order_acquire) != seen_epoch;
    });
    if (quit_.load(std::memory_order_acquire)) return false;
    seen_epoch = epoch_.load(std::memory_order_acquire);
    target = target_.load(std::memory_order_relaxed);
    return true;
  }

  /// Peer: report this epoch's window complete. The last arriver wakes
  /// the coordinator (one lock round-trip per epoch).
  void arrive() {
    if (arrived_.fetch_add(1, std::memory_order_release) + 1 == parties_) {
      { const std::lock_guard<std::mutex> guard(mutex_); }
      cv_done_.notify_one();
    }
  }

  [[nodiscard]] std::uint32_t spin_limit() const noexcept {
    return spin_limit_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_open_;  ///< peers park here between epochs
  std::condition_variable cv_done_;  ///< coordinator parks here per epoch
  const std::uint32_t parties_;
  const std::uint32_t spin_limit_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<SimTime> target_{0};
  std::atomic<bool> quit_{false};
};

}  // namespace mvpn::sim
