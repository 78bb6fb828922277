#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "stats/log_histogram.hpp"
#include "stats/table.hpp"

namespace mvpn::obs {

/// Sentinel for "this instant was never observed".
inline constexpr sim::SimTime kNoTime = -1;

/// One hop of a packet's life: the egress queue + wire of a single link
/// direction. Times come straight from the flight-recorder events; a field
/// stays kNoTime when the corresponding event was not captured (category
/// masked, or lost to ring wraparound).
struct HopSpan {
  std::uint32_t node = 0;  ///< transmitting node
  std::uint32_t link = 0;
  std::uint8_t band = 0;   ///< egress queue band (from the enqueue event)
  sim::SimTime enqueue_at = kNoTime;
  sim::SimTime dequeue_at = kNoTime;
  sim::SimTime tx_at = kNoTime;
  sim::SimTime deliver_at = kNoTime;

  [[nodiscard]] bool queued() const noexcept {
    return enqueue_at != kNoTime && dequeue_at != kNoTime;
  }
  [[nodiscard]] sim::SimTime queue_wait() const noexcept {
    return queued() ? dequeue_at - enqueue_at : 0;
  }
  [[nodiscard]] bool on_wire() const noexcept {
    return tx_at != kNoTime && deliver_at != kNoTime;
  }
  [[nodiscard]] sim::SimTime wire_time() const noexcept {
    return on_wire() ? deliver_at - tx_at : 0;
  }
};

/// A packet's reconstructed lifecycle: ordered hops plus terminal fate.
struct PacketSpan {
  std::uint64_t packet_id = 0;
  std::uint8_t cls = 0;
  bool dropped = false;
  bool completed = false;  ///< saw a VRF/local delivery
  DropReason drop_reason = DropReason::kNone;
  sim::SimTime first_at = kNoTime;
  sim::SimTime last_at = kNoTime;
  std::vector<HopSpan> hops;
};

/// Control-plane timeline of one RSVP-TE LSP: signaling, first up, and
/// every reroute episode (reroute trigger -> re-signaled up or failure).
struct LspTimeline {
  std::uint32_t lsp = 0;
  sim::SimTime signaled_at = kNoTime;
  sim::SimTime first_up_at = kNoTime;

  struct Episode {
    sim::SimTime reroute_at = kNoTime;   ///< head end reacted to the failure
    sim::SimTime restored_at = kNoTime;  ///< re-signaled kLspUp
    sim::SimTime failed_at = kNoTime;    ///< kLspDown instead (gave up)
    std::uint32_t failed_link = 0;
  };
  std::vector<Episode> episodes;

  [[nodiscard]] sim::SimTime setup_latency() const noexcept {
    return (signaled_at != kNoTime && first_up_at != kNoTime)
               ? first_up_at - signaled_at
               : kNoTime;
  }
};

/// Everything analyze_spans() folds out of one event stream.
struct SpanAnalysis {
  std::vector<PacketSpan> packets;
  std::vector<LspTimeline> lsps;

  /// LDP: kLdpAnnounce (FEC owner) -> each kLdpMapping for that owner.
  stats::LogHistogram ldp_mapping_s;
  std::uint64_t ldp_mappings = 0;
  std::uint64_t ldp_unanchored = 0;  ///< mappings with no announce seen

  /// RSVP-TE: kLspSignal -> first kLspUp per LSP.
  stats::LogHistogram lsp_setup_s;
  /// Link-failure convergence: kLspReroute -> re-signaled kLspUp.
  stats::LogHistogram reroute_convergence_s;
  std::uint64_t reroutes = 0;
  std::uint64_t reroutes_failed = 0;

  [[nodiscard]] std::uint64_t completed_packets() const noexcept {
    std::uint64_t n = 0;
    for (const auto& p : packets) n += p.completed ? 1 : 0;
    return n;
  }
};

/// Fold a flight-recorder event stream (oldest first, as produced by
/// FlightRecorder::snapshot()) into per-packet spans and per-LSP timelines.
[[nodiscard]] SpanAnalysis analyze_spans(const std::vector<TraceEvent>& events);
[[nodiscard]] SpanAnalysis analyze_spans(const FlightRecorder& recorder);

/// Chrome trace_event JSON with duration ("X") spans: per packet-hop a
/// "queued" span (enqueue -> dequeue) and a "wire" span (tx -> deliver) on
/// the transmitting node's track, plus per-LSP "setup" / "outage" spans on
/// a control-plane track. Complements write_chrome_trace()'s instant view.
/// Packets come in (first hop start, packet id) order and LSPs by id, so
/// the same event multiset writes the same file at every shard count.
void write_span_chrome_trace(const SpanAnalysis& analysis, std::ostream& out,
                             const NodeNamer& namer = {});

/// Control-plane latency summary (LDP mapping, LSP setup, reroute
/// convergence), one row per signaling stage.
[[nodiscard]] stats::Table control_plane_table(const SpanAnalysis& analysis);

/// Machine-readable summary (one JSON object) for bench reports.
void write_span_summary_json(const SpanAnalysis& analysis, std::ostream& out);

}  // namespace mvpn::obs
