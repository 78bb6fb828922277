#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/shard.hpp"

namespace mvpn::sim {

namespace {

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParallelEngine::ParallelEngine(std::vector<ShardRef> shards,
                               SimTime lookahead, Scheduler* global)
    : shards_(std::move(shards)),
      span_(shards_.size() > 1 ? lookahead
                               : std::numeric_limits<SimTime>::max()),
      global_(global),
      // The calling thread runs lane 0; only the peers meet at the barrier
      // (an empty shard list wraps this count and throws just below).
      barrier_(static_cast<std::uint32_t>(shards_.size()) - 1),
      lane_errors_(shards_.size()) {
  if (shards_.empty()) {
    throw std::invalid_argument("ParallelEngine: no shards");
  }
  if (shards_.size() > 1 && lookahead < 1) {
    throw std::invalid_argument(
        "ParallelEngine: lookahead must be at least 1 ns of cross-shard "
        "latency — a zero-delay cut admits same-instant interactions that "
        "conservative windows cannot order");
  }
}

ParallelEngine::~ParallelEngine() {
  if (peers_.empty()) return;
  barrier_.shutdown();
  for (std::thread& t : peers_) t.join();
}

void ParallelEngine::add_periodic_action(SimTime first, SimTime period,
                                         std::function<void(SimTime)> fn) {
  if (period < 1) {
    throw std::invalid_argument("ParallelEngine: action period must be >= 1");
  }
  actions_.push_back(Action{first, period, std::move(fn)});
}

std::uint64_t ParallelEngine::stamp() const noexcept {
  return observer_ != nullptr ? steady_ns() : 0;
}

void ParallelEngine::peer(std::uint32_t lane) {
  const ShardGuard guard(shards_[lane].id);
  EngineObserver::WorkerEpoch we;
  std::uint64_t epoch = 0;
  SimTime target = 0;
  for (;;) {
    we.begin_ns = stamp();
    if (!barrier_.next(epoch, target, &we.parked)) return;
    run_slice(lane, epoch, target, we);
    barrier_.arrive();
  }
}

void ParallelEngine::run_slice(std::uint32_t lane, std::uint64_t epoch,
                               SimTime target,
                               EngineObserver::WorkerEpoch& we) noexcept {
  Scheduler& sched = *shards_[lane].scheduler;
  const SimTime window_start = sched.now();
  const std::uint64_t ev0 = sched.executed_count();
  const std::uint64_t t_run = stamp();
  try {
    sched.run_until(target);
  } catch (...) {
    if (!lane_errors_[lane]) lane_errors_[lane] = std::current_exception();
  }
  if (observer_ == nullptr) return;
  // The hook runs before the lane reports back, so its writes are ordered
  // ahead of the coordinator's post-barrier reads (a peer's by the
  // arrive/wait_all_arrived release/acquire edge, lane 0's by program
  // order).
  we.shard = shards_[lane].id;
  we.epoch = epoch;
  we.window_start = window_start;
  we.window_end = target;
  we.wait_ns = t_run - we.begin_ns;
  we.exec_ns = steady_ns() - t_run;
  we.events = sched.executed_count() - ev0;
  observer_->on_worker_epoch(we);
}

void ParallelEngine::run_window(EngineObserver::CoordinatorEpoch& ce) {
  const bool peers = !peers_.empty();
  // Lane 0 never waits for a window to open: its "wait" is the cost of
  // opening it for the peers, and it never parks.
  EngineObserver::WorkerEpoch we;
  we.begin_ns = stamp();
  if (peers) barrier_.open(ce.window_end);
  ce.epoch = windows_ + 1;  // the barrier's epoch number once opened
  {
    const ShardGuard guard(shards_.front().id);
    run_slice(0, ce.epoch, ce.window_end, we);
  }
  ce.begin_ns = stamp();
  if (peers) barrier_.wait_all_arrived(&ce.parked);
  ce.wait_ns = stamp() - ce.begin_ns;
  ++windows_;
  if (ce.widened) ++widened_windows_;
  if (ce.idle_jump) ++idle_jumps_;
  rethrow_lane_error();
  if (exchange_) exchange_(ce.window_end);
  // After the exchange (drain stats for this epoch are pending in the
  // profiler) and while the peers are still parked — per-lane state is
  // stable for the observer to sample.
  if (observer_ != nullptr) observer_->on_coordinator_epoch(ce);
}

void ParallelEngine::rethrow_lane_error() const {
  for (const std::exception_ptr& err : lane_errors_) {
    if (err) std::rethrow_exception(err);
  }
}

SimTime ParallelEngine::next_global_time() const {
  SimTime t = Scheduler::kNoEventTime;
  for (const Action& a : actions_) {
    if (a.fn && a.at < t) t = a.at;
  }
  if (global_ != nullptr) {
    const SimTime s = global_->next_event_time();
    if (s < t) t = s;
  }
  return t;
}

void ParallelEngine::fire_global(SimTime at) {
  if (global_ != nullptr) global_->run_until(at);
  for (Action& a : actions_) {
    while (a.fn && a.at <= at) {
      a.fn(a.at);
      a.at += a.period;
    }
  }
}

void ParallelEngine::run_until(SimTime t_end) {
  rethrow_lane_error();
  // A lane may have been advanced directly since the last call (one lane
  // is the topology's own scheduler): every lane enters the next window
  // at the latest clock (run_until on an empty queue just advances it).
  for (const ShardRef& s : shards_) {
    frontier_ = std::max(frontier_, s.scheduler->now());
  }
  for (const ShardRef& s : shards_) {
    if (s.scheduler->now() < frontier_) s.scheduler->run_until(frontier_);
  }
  if (peers_.empty()) {
    for (std::uint32_t lane = 1; lane < shards_.size(); ++lane) {
      peers_.emplace_back([this, lane] { peer(lane); });
    }
  }
  while (frontier_ < t_end) {
    const SimTime global_at = next_global_time();
    // Global work at time G must see every event before G and none at or
    // after it, so windows stop at G-1; with integer time that boundary is
    // exact, not an epsilon.
    SimTime target = t_end;
    if (global_at != Scheduler::kNoEventTime && global_at - 1 < target) {
      target = global_at - 1;
    }
    if (target <= frontier_) {
      fire_global(global_at);
      continue;
    }
    // Adaptive window sizing. The peers are parked between epochs, so the
    // lane queues are stable and reading them here is race-free. Every
    // pending event sits at u >= next_min, so remote work lands at >=
    // next_min + lookahead and a window ending at next_min + lookahead - 1
    // is still conservative. next_min >= frontier_ + 1 (all lanes have
    // finished events <= frontier_), so the adaptive window is never
    // narrower than the static frontier_ + lookahead one; when every lane
    // is idle past the target the window jumps straight to it.
    SimTime next_min = Scheduler::kNoEventTime;
    for (const ShardRef& s : shards_) {
      next_min = std::min(next_min, s.scheduler->next_event_time());
    }
    EngineObserver::CoordinatorEpoch ce;
    ce.window_start = frontier_;
    ce.idle_jump = next_min >= target;
    ce.window_end = ce.idle_jump || target - next_min < span_
                        ? target
                        : next_min + (span_ - 1);
    ce.widened = ce.window_end - frontier_ > span_;
    run_window(ce);
    frontier_ = ce.window_end;
  }
  // Leave the global clock at t_end (running any residual events exactly at
  // t_end), so post-run reads see the same instant a serial run_until ends.
  if (global_ != nullptr && global_->now() <= t_end) global_->run_until(t_end);
}

}  // namespace mvpn::sim
