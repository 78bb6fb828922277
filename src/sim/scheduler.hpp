#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_callable.hpp"
#include "sim/time.hpp"

namespace mvpn::sim {

/// Opaque handle for a scheduled event; usable with Scheduler::cancel.
/// `seq` is the event's globally unique sequence number; `slot` names the
/// pooled node it occupies. A handle stays safely cancellable after the
/// event fires: the node's sequence number no longer matches, so the
/// cancel is an exact no-op even if the slot was recycled.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  [[nodiscard]] bool valid() const noexcept { return seq != 0; }
};

/// Deterministic discrete-event scheduler.
///
/// Events fire in (time, insertion-sequence) order, so simultaneous events
/// execute in the order they were scheduled — runs are bit-reproducible for
/// a given seed. Handlers may schedule further events and may cancel
/// not-yet-fired events.
///
/// The heap orders instants, not events: each 24-byte entry is a bucket of
/// events at one time, a FIFO chain of pooled nodes. A control-plane burst
/// lands on a few delay-lattice instants (INTERNALS §1), so most events
/// join an open bucket through a small cache of open tails and most pops
/// advance a chain without a sift. Events at distinct times cost one
/// bucket each.
///
/// Steady-state operation is allocation-free: handlers live in pooled,
/// recycled event nodes (with small-buffer storage — see InlineCallable),
/// and the priority queue is an in-house 4-ary heap that moves values out
/// on pop instead of copying the whole event the way
/// `std::priority_queue::top()` forces. Only run() returning with an empty
/// queue gives that storage back (INTERNALS §6).
class Scheduler {
 public:
  using Handler = InlineCallable;

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(SimTime t, Handler fn);
  /// Schedule `fn` at now() + delay (delay >= 0).
  EventId schedule_in(SimTime delay, Handler fn);
  /// Cancel a pending event; exact no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Run until the queue drains or stop() is called. A run that drains
  /// the queue also frees the node pool and the heap: a cold boot's burst
  /// of pending events must not hold memory for the rest of the run.
  void run();
  /// Run events with time <= t_end, then set now() = t_end. Keeps the
  /// pool and heap storage, so windowed runs stay allocation-free.
  void run_until(SimTime t_end);
  /// Request that run()/run_until() return after the current handler.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Sentinel returned by next_event_time() for an empty queue.
  static constexpr SimTime kNoEventTime = std::numeric_limits<SimTime>::max();
  /// Time of the earliest pending event, or kNoEventTime when none. Not
  /// const: cancelled heads are compacted away so the answer is exact.
  [[nodiscard]] SimTime next_event_time();

  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t executed_count() const noexcept {
    return executed_;
  }

  /// Pool introspection (zero-allocation assertions and sizing stats).
  [[nodiscard]] std::size_t node_pool_size() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t heap_capacity() const noexcept {
    return heap_.capacity();
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Pooled event body. The heap orders slim HeapEntry records; the
  /// callable itself stays put in its node until the event fires, so heap
  /// sifts move 24-byte PODs instead of type-erased closures.
  struct Node {
    Handler fn;
    std::uint64_t seq = 0;  ///< matches the handed-out EventId; 0 when free
    /// A pending node's successor in its bucket, a free node's in the free
    /// list (a node is never both); kNoSlot ends either chain.
    std::uint32_t next = kNoSlot;
    bool cancelled = false;
  };

  /// One bucket: the pending events at `time` from `seq` on, chained from
  /// node `slot` (the head). Buckets of one time hold disjoint, increasing
  /// sequence ranges, so (time, seq of the first event) orders them.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Tail of a bucket that schedule_at may still append to.
  struct OpenTail {
    SimTime time = -1;  ///< -1 marks an empty entry: times are >= 0
    std::uint32_t slot = kNoSlot;
  };
  /// Fully associative, round-robin. A time has at most one entry, and it
  /// names the newest bucket of that time: an evicted bucket is never
  /// appended to again, and a drained one clears its entry.
  static constexpr std::size_t kOpenTails = 4;

  [[nodiscard]] static bool earlier(const HeapEntry& a,
                                    const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void heap_push(HeapEntry e);
  void heap_pop_min();

  std::uint32_t acquire_node();
  void release_node(std::uint32_t slot);

  /// Chain node `slot` (event `seq`) onto the open bucket of time `t`, or
  /// open a new bucket for it.
  void append(SimTime t, std::uint64_t seq, std::uint32_t slot);
  /// Unlink the head bucket's first node and return its slot; a drained
  /// bucket leaves the heap and the tail cache.
  std::uint32_t take_head();

  /// Pop cancelled events off the heap head; returns false when empty.
  bool drop_cancelled_head();
  bool pop_and_execute();

  std::vector<HeapEntry> heap_;  ///< implicit 4-ary min-heap of buckets
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNoSlot;
  std::array<OpenTail, kOpenTails> open_tails_{};
  std::size_t next_victim_ = 0;  ///< open_tails_ entry the next bucket takes
  std::size_t live_ = 0;         ///< scheduled, not yet fired or cancelled
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace mvpn::sim
