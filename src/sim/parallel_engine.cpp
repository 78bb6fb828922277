#include "sim/parallel_engine.hpp"

#include <chrono>
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
      lookahead_(lookahead),
      global_(global),
      barrier_(static_cast<std::uint32_t>(shards_.size())) {
  if (shards_.empty()) {
    throw std::invalid_argument("ParallelEngine: no shards");
  }
  if (shards_.size() > 1 && lookahead_ < 1) {
    throw std::invalid_argument(
        "ParallelEngine: lookahead must be at least 1 ns of cross-shard "
        "latency — a zero-delay cut admits same-instant interactions that "
        "conservative windows cannot order");
  }
  frontier_ = shards_.front().scheduler->now();
  for (const ShardRef& s : shards_) {
    if (s.scheduler->now() > frontier_) frontier_ = s.scheduler->now();
  }
}

ParallelEngine::~ParallelEngine() {
  if (workers_running_) {
    barrier_.shutdown();
    for (std::thread& t : threads_) t.join();
  }
}

void ParallelEngine::add_periodic_action(SimTime first, SimTime period,
                                         std::function<void(SimTime)> fn) {
  if (period < 1) {
    throw std::invalid_argument("ParallelEngine: action period must be >= 1");
  }
  actions_.push_back(Action{first, period, std::move(fn)});
}

void ParallelEngine::start_workers() {
  if (workers_running_) return;
  workers_running_ = true;
  threads_.reserve(shards_.size());
  for (const ShardRef& s : shards_) {
    // Align stragglers so every shard enters the first window at the same
    // instant (run_until on an empty queue just advances the clock).
    if (s.scheduler->now() < frontier_) s.scheduler->run_until(frontier_);
    threads_.emplace_back([this, s] { worker(s); });
  }
}

void ParallelEngine::worker(ShardRef shard) {
  const ShardGuard guard(shard.id);
  std::uint64_t seen_epoch = 0;
  SimTime target = 0;
  if (observer_ == nullptr) {
    while (barrier_.next(seen_epoch, target)) {
      try {
        shard.scheduler->run_until(target);
      } catch (...) {
        const std::lock_guard<std::mutex> g(error_mutex_);
        if (!worker_error_) worker_error_ = std::current_exception();
      }
      barrier_.arrive();
    }
    return;
  }
  // Instrumented loop: two clock reads bracket the wait, one more closes
  // the execution phase. The observer hook runs *before* arrive() so its
  // ring writes are ordered ahead of the coordinator's post-barrier reads
  // by the arrive/wait_all_arrived release/acquire edge.
  SimTime window_start = shard.scheduler->now();
  for (;;) {
    EngineObserver::WorkerEpoch we;
    we.shard = shard.id;
    we.begin_ns = steady_ns();
    if (!barrier_.next(seen_epoch, target, &we.parked)) break;
    const std::uint64_t t_run = steady_ns();
    const std::uint64_t ev0 = shard.scheduler->executed_count();
    try {
      shard.scheduler->run_until(target);
    } catch (...) {
      const std::lock_guard<std::mutex> g(error_mutex_);
      if (!worker_error_) worker_error_ = std::current_exception();
    }
    we.epoch = seen_epoch;
    we.window_start = window_start;
    we.window_end = target;
    we.wait_ns = t_run - we.begin_ns;
    we.exec_ns = steady_ns() - t_run;
    we.events = shard.scheduler->executed_count() - ev0;
    observer_->on_worker_epoch(we);
    window_start = target;
    barrier_.arrive();
  }
}

void ParallelEngine::rethrow_worker_error() {
  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> g(error_mutex_);
    err = worker_error_;
  }
  if (err) std::rethrow_exception(err);
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

void ParallelEngine::run_inline(SimTime t_end) {
  Scheduler& lane = *shards_.front().scheduler;
  // The lane may have been advanced directly since the last call.
  if (lane.now() > frontier_) frontier_ = lane.now();
  while (frontier_ < t_end) {
    const SimTime global_at = next_global_time();
    SimTime target = t_end;
    if (global_at != Scheduler::kNoEventTime && global_at - 1 < target) {
      target = global_at - 1;
    }
    if (target > frontier_) {
      lane.run_until(target);
      frontier_ = target;
    } else {
      fire_global(global_at);
    }
  }
  if (global_ != nullptr && global_->now() <= t_end) global_->run_until(t_end);
}

void ParallelEngine::run_until(SimTime t_end) {
  if (shards_.size() == 1) {
    run_inline(t_end);
    return;
  }
  start_workers();
  while (frontier_ < t_end) {
    rethrow_worker_error();
    const SimTime global_at = next_global_time();
    // Global work at time G must see every event before G and none at or
    // after it, so windows stop at G-1; with integer time that boundary is
    // exact, not an epsilon.
    SimTime target = t_end;
    if (global_at != Scheduler::kNoEventTime && global_at - 1 < target) {
      target = global_at - 1;
    }
    if (target > frontier_) {
      // Adaptive window sizing. Workers are parked between epochs, so the
      // shard queues are stable and reading them here is race-free. Every
      // pending event sits at u >= next_min, so remote work lands at
      // >= next_min + lookahead and a window ending at next_min +
      // lookahead - 1 is still conservative. next_min >= frontier_ + 1
      // (all shards have finished events <= frontier_), so the adaptive
      // window is never narrower than the static frontier_ + lookahead
      // one; when every shard is idle past the target the window jumps
      // straight to it.
      SimTime next_min = Scheduler::kNoEventTime;
      for (const ShardRef& s : shards_) {
        const SimTime t = s.scheduler->next_event_time();
        if (t < next_min) next_min = t;
      }
      SimTime window_end;
      bool idle_jump = false;
      if (next_min == Scheduler::kNoEventTime || next_min >= target) {
        window_end = target;
        idle_jump = true;
      } else {
        window_end = next_min + (lookahead_ - 1);
        if (window_end > target) window_end = target;
      }
      const bool widened = window_end > frontier_ + lookahead_;
      if (widened) ++widened_windows_;
      if (idle_jump) ++idle_jumps_;
      if (observer_ == nullptr) {
        barrier_.open(window_end);
        barrier_.wait_all_arrived();
        ++windows_;
        rethrow_worker_error();
        if (exchange_) exchange_(window_end);
      } else {
        EngineObserver::CoordinatorEpoch ce;
        ce.window_start = frontier_;
        ce.window_end = window_end;
        ce.widened = widened;
        ce.idle_jump = idle_jump;
        barrier_.open(window_end);
        ce.epoch = barrier_.epoch();
        ce.begin_ns = steady_ns();
        barrier_.wait_all_arrived(&ce.parked);
        ce.wait_ns = steady_ns() - ce.begin_ns;
        ++windows_;
        rethrow_worker_error();
        if (exchange_) exchange_(window_end);
        // After the exchange (drain stats for this epoch are pending in
        // the profiler) and while workers are still parked — per-shard
        // state is stable for the observer to sample.
        observer_->on_coordinator_epoch(ce);
      }
      frontier_ = window_end;
    } else {
      fire_global(global_at);
    }
  }
  rethrow_worker_error();
  // Leave the global clock at t_end (running any residual events exactly at
  // t_end), so post-run reads see the same instant a serial run_until ends.
  if (global_ != nullptr && global_->now() <= t_end) global_->run_until(t_end);
}

}  // namespace mvpn::sim
