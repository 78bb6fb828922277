#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mvpn::sim {

namespace {
/// 4-ary layout: children of i are 4i+1 .. 4i+4. A wider fanout halves the
/// tree depth vs a binary heap, and the four children share cache lines —
/// the classic d-ary trade that favors push/pop-heavy event queues.
constexpr std::size_t kArity = 4;
}  // namespace

void Scheduler::heap_push(HeapEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Scheduler::heap_pop_min() {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root, moving holes instead of swapping.
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
}

std::uint32_t Scheduler::acquire_node() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = nodes_[slot].next;
    nodes_[slot].next = kNoSlot;
    return slot;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Scheduler::release_node(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.fn.reset();
  n.seq = 0;
  n.cancelled = false;
  n.next = free_head_;
  free_head_ = slot;
}

void Scheduler::append(SimTime t, std::uint64_t seq, std::uint32_t slot) {
  for (OpenTail& tail : open_tails_) {
    if (tail.time == t) {
      nodes_[tail.slot].next = slot;
      tail.slot = slot;
      return;
    }
  }
  heap_push(HeapEntry{t, seq, slot});
  // The victim's bucket stays in the heap, closed: a later event at its
  // time opens a newer bucket, which sorts after it by sequence number.
  open_tails_[next_victim_] = OpenTail{t, slot};
  next_victim_ = (next_victim_ + 1) % kOpenTails;
}

std::uint32_t Scheduler::take_head() {
  HeapEntry& head = heap_.front();
  const std::uint32_t slot = head.slot;
  const std::uint32_t next = nodes_[slot].next;
  if (next != kNoSlot) {
    // Same bucket, same key: the heap needs no sift.
    head.slot = next;
    return slot;
  }
  for (OpenTail& tail : open_tails_) {
    if (tail.slot == slot) {
      tail = OpenTail{};
      break;
    }
  }
  heap_pop_min();
  return slot;
}

EventId Scheduler::schedule_at(SimTime t, Handler fn) {
  if (t < now_) {
    throw std::invalid_argument("Scheduler::schedule_at: time is in the past");
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = acquire_node();
  Node& n = nodes_[slot];
  n.fn = std::move(fn);
  n.seq = seq;
  append(t, seq, slot);
  ++live_;
  return EventId{seq, slot};
}

EventId Scheduler::schedule_in(SimTime delay, Handler fn) {
  if (delay < 0) {
    throw std::invalid_argument("Scheduler::schedule_in: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::cancel(EventId id) {
  if (!id.valid() || id.slot >= nodes_.size()) return;
  Node& n = nodes_[id.slot];
  // The node's live sequence number authenticates the handle: after the
  // event fires (or the slot is recycled for a newer event) the numbers no
  // longer match and the cancel is a no-op — a stale handle can neither
  // kill an unrelated event nor skew pending().
  if (n.seq != id.seq || n.cancelled) return;
  n.cancelled = true;
  --live_;
}

bool Scheduler::drop_cancelled_head() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_.front().slot;
    if (!nodes_[slot].cancelled) return true;
    take_head();
    release_node(slot);
  }
  return false;
}

bool Scheduler::pop_and_execute() {
  if (!drop_cancelled_head()) return false;
  const SimTime t = heap_.front().time;
  const std::uint32_t slot = take_head();
  // Move the handler out before running it: the handler may schedule new
  // events, which can grow nodes_ and invalidate references into it.
  Handler fn = std::move(nodes_[slot].fn);
  release_node(slot);
  now_ = t;
  --live_;
  ++executed_;
  fn();
  return true;
}

SimTime Scheduler::next_event_time() {
  if (!drop_cancelled_head()) return kNoEventTime;
  return heap_.front().time;
}

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_ && pop_and_execute()) {
  }
  if (!heap_.empty()) return;
  // Drained: every node is free, so the pool and heap can go. Handles
  // issued before stay exact no-ops in cancel(): their slot is out of range
  // or, once the pool regrows, carries a newer sequence number.
  std::vector<HeapEntry>().swap(heap_);
  std::vector<Node>().swap(nodes_);
  free_head_ = kNoSlot;
  open_tails_ = {};
  next_victim_ = 0;
}

void Scheduler::run_until(SimTime t_end) {
  stopped_ = false;
  // Skip cancelled heads first so we do not advance time for dead events.
  while (!stopped_ && drop_cancelled_head()) {
    if (heap_.front().time > t_end) break;
    pop_and_execute();
  }
  if (!stopped_ && now_ < t_end) now_ = t_end;
}

}  // namespace mvpn::sim
