#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mvpn::obs {

/// Trace categories. Each call site guards its emission with one
/// `enabled(category)` test, so whole subsystems can be silenced at run
/// time (mask) or removed at compile time (MVPN_TRACE_COMPILED_MASK).
enum class Category : std::uint32_t {
  kQueue = 1u << 0,      ///< egress-queue enqueue / dequeue / drop
  kLink = 1u << 1,       ///< wire transmissions and deliveries
  kMpls = 1u << 2,       ///< label push / pop / swap / PHP
  kVpn = 1u << 3,        ///< VRF and local delivery, data-plane drops
  kSignaling = 1u << 4,  ///< LDP mappings, RSVP-TE LSP state
  kOam = 1u << 5,        ///< LSP ping probes / replies / timeouts
  kFastpath = 1u << 6,   ///< flow-cache resolve / stale-entry invalidation
};

inline constexpr std::uint32_t kAllCategories = 0x7Fu;

/// Compile-time category mask: categories absent from it fold every
/// `enabled()` check to constant false, letting the optimizer delete the
/// emission code entirely. Default keeps everything compiled in (runtime
/// mask still gates emission and defaults to off).
#ifndef MVPN_TRACE_COMPILED_MASK
#define MVPN_TRACE_COMPILED_MASK 0xFFFFFFFFu
#endif
inline constexpr std::uint32_t kCompiledTraceMask = MVPN_TRACE_COMPILED_MASK;

[[nodiscard]] const char* to_string(Category c) noexcept;

enum class EventType : std::uint8_t {
  kEnqueue,       ///< packet accepted into an egress queue
  kDequeue,       ///< packet pulled from an egress queue for transmission
  kDrop,          ///< packet lost; `reason` says why, `node`/`a` say where
  kLinkTx,        ///< serialization started on a link direction
  kDeliver,       ///< packet handed to a node's receive()
  kLabelPush,     ///< MPLS imposition (a = VPN label, b = tunnel label or 0)
  kLabelSwap,     ///< LSR swap (a = in label, b = out label)
  kLabelPop,      ///< pop without delivery — penultimate-hop popping
  kVrfDeliver,    ///< VPN label popped into a VRF (a = label, b = VRF id)
  kLocalDeliver,  ///< packet terminated at a router sink (a = VPN id)
  kLspUp,         ///< RSVP-TE LSP signaled up at the head end (a = LSP id)
  kLspDown,       ///< RSVP-TE LSP failed / torn down (a = LSP id)
  kLspReroute,    ///< head-end reroute triggered (a = LSP id, b = link id)
  kLdpMapping,    ///< LDP label mapping accepted (a = label, b = FEC owner)
  kLdpAnnounce,   ///< egress FEC announced into LDP (a = label, b = owner)
  kLspSignal,     ///< RSVP-TE Path signaling started (a = LSP id)
  kOamProbe,      ///< LSP ping probe sent (a = LSP id)
  kOamReply,      ///< LSP ping reply received at the head (a = LSP id)
  kOamTimeout,    ///< LSP ping timed out (a = LSP id)
  kFastpathResolve,     ///< slow-path decision cached (a = flow/label, aux = action)
  kFastpathInvalidate,  ///< stale entry hit, re-resolving (a = flow/label)
};

[[nodiscard]] const char* to_string(EventType t) noexcept;

/// Why a packet died. Shared by queue disciplines (tail/RED/WRED/LLQ),
/// links (down) and the router data plane (lookup misses, TTL, policing).
enum class DropReason : std::uint8_t {
  kNone,
  kTailDrop,     ///< queue at capacity
  kRedEarly,     ///< RED probabilistic early drop
  kRedForced,    ///< RED average beyond 2*max_th or FIFO full
  kEfPoliced,    ///< LLQ priority-band token bucket exceeded
  kLinkDown,     ///< link administratively/failure down
  kTtlExpired,   ///< IP TTL or MPLS TTL hit zero
  kNoRoute,      ///< FIB/VRF lookup miss
  kLabelMiss,    ///< no LFIB entry (or PVC switch miss)
  kNoTunnel,     ///< no LSP toward the egress PE
  kPoliced,      ///< edge policer red verdict
  kEspRejected,  ///< ESP decapsulation / replay failure
};

[[nodiscard]] const char* to_string(DropReason r) noexcept;

/// One structured trace record. Fixed-size POD — no strings, no heap —
/// so recording is a bounds-masked array store. Field meaning varies per
/// EventType (see the enum comments); unused fields stay zero.
struct TraceEvent {
  sim::SimTime at = 0;          ///< stamped by FlightRecorder::record()
  std::uint64_t packet_id = 0;  ///< 0 for non-packet (signaling) events
  std::uint32_t node = 0;       ///< where it happened
  std::uint32_t a = 0;          ///< type-specific (label / LSP id / ...)
  std::uint32_t b = 0;          ///< type-specific (label / VRF / link id)
  std::uint32_t bytes = 0;      ///< wire size for packet events
  EventType type = EventType::kDrop;
  DropReason reason = DropReason::kNone;
  std::uint8_t cls = 0;  ///< visible 3-bit class (EXP if labeled, DSCP>>3)
  std::uint8_t aux = 0;  ///< queue band or other small discriminator
};

/// Simulator-wide flight recorder: a fixed-capacity ring of TraceEvents.
///
/// The contract every hot path relies on:
///  * disabled (the default) costs one mask load + predictable branch per
///    call site — `enabled()` is inline and the mask is 0 — and holds no
///    ring: the configured capacity is only a number until the first
///    enable() allocates it (a recorder that is never enabled, as in every
///    untraced run, never pays its capacity × 40 B);
///  * enabled costs one clock read and one array store per event — the
///    ring allocates once, at the first enable() (or the first write into
///    a recorder that was never enabled, as the shard merge does), and
///    never again until set_capacity();
///  * when the ring wraps, the oldest events are overwritten and counted
///    in overwritten() — recording never fails and never grows memory.
class FlightRecorder {
 public:
  /// `clock` stamps event times. Pass nullptr for a permanently-disabled
  /// recorder (enable() becomes a no-op).
  explicit FlightRecorder(const sim::Scheduler* clock,
                          std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  /// Turn on the given categories (ANDed with the compile-time mask),
  /// allocating the ring if this is the first time any is on.
  void enable(std::uint32_t categories = kAllCategories) noexcept {
    if (clock_ == nullptr) return;
    mask_ = categories & kCompiledTraceMask;
    if (mask_ != 0 && ring_.empty()) allocate_ring();
  }
  void disable() noexcept { mask_ = 0; }

  [[nodiscard]] bool enabled(Category c) const noexcept {
    return (mask_ & static_cast<std::uint32_t>(c) & kCompiledTraceMask) != 0;
  }
  [[nodiscard]] std::uint32_t mask() const noexcept { return mask_; }

  /// Set the ring size (rounded up to a power of two) and clear it. An
  /// allocated ring is reallocated at the new size; an unallocated one
  /// stays unallocated.
  void set_capacity(std::size_t capacity);
  /// The configured size, whether or not the ring is allocated yet.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return index_mask_ + 1;
  }
  /// Heap bytes the ring holds: 0 until the first enable() or write.
  [[nodiscard]] std::size_t ring_bytes() const noexcept {
    return ring_.capacity() * sizeof(TraceEvent);
  }

  /// Append `ev` (timestamped now). Callers are expected to have checked
  /// enabled() — record() itself never re-checks, keeping the hot path to
  /// exactly one branch when tracing is off.
  void record(TraceEvent ev) noexcept {
    ev.at = clock_->now();
    append_stamped(ev);
  }

  /// Append a pre-stamped event, keeping `ev.at` as-is. This is the merge
  /// path: per-shard recorders stamp with their own shard clocks, and the
  /// coordinator folds their snapshots into the master recorder in global
  /// (at, shard) order — re-stamping with the master clock would collapse
  /// every merged event onto the merge instant.
  void append_stamped(const TraceEvent& ev) noexcept {
    if (ring_.empty()) [[unlikely]] allocate_ring();
    ring_[static_cast<std::size_t>(head_) & index_mask_] = ev;
    ++head_;
  }

  /// Events ever recorded (monotonic, includes overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return head_; }
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return head_ > capacity() ? head_ - capacity() : 0;
  }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept {
    return head_ < capacity() ? static_cast<std::size_t>(head_) : capacity();
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  void clear() noexcept { head_ = 0; }

 private:
  /// Size the ring to capacity() (zeroed). Out of line: it runs once.
  void allocate_ring() noexcept;

  const sim::Scheduler* clock_;
  std::uint32_t mask_ = 0;  ///< 0 = disabled (the default)
  std::uint64_t head_ = 0;  ///< next write position (monotonic)
  std::size_t index_mask_ = 0;  ///< capacity() - 1
  std::vector<TraceEvent> ring_;  ///< empty until the first enable()/write
};

/// Process-wide permanently-disabled recorder (clock-less, so enable() is
/// a no-op). Lets components hold a never-null recorder pointer before
/// they are wired to a topology — the disabled-path cost is identical.
[[nodiscard]] FlightRecorder& disabled_recorder() noexcept;

}  // namespace mvpn::obs
