#include "obs/trace.hpp"

namespace mvpn::obs {

const char* to_string(Category c) noexcept {
  switch (c) {
    case Category::kQueue: return "queue";
    case Category::kLink: return "link";
    case Category::kMpls: return "mpls";
    case Category::kVpn: return "vpn";
    case Category::kSignaling: return "signaling";
    case Category::kOam: return "oam";
    case Category::kFastpath: return "fastpath";
  }
  return "?";
}

const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::kEnqueue: return "enqueue";
    case EventType::kDequeue: return "dequeue";
    case EventType::kDrop: return "drop";
    case EventType::kLinkTx: return "link_tx";
    case EventType::kDeliver: return "deliver";
    case EventType::kLabelPush: return "label_push";
    case EventType::kLabelSwap: return "label_swap";
    case EventType::kLabelPop: return "label_pop";
    case EventType::kVrfDeliver: return "vrf_deliver";
    case EventType::kLocalDeliver: return "local_deliver";
    case EventType::kLspUp: return "lsp_up";
    case EventType::kLspDown: return "lsp_down";
    case EventType::kLspReroute: return "lsp_reroute";
    case EventType::kLdpMapping: return "ldp_mapping";
    case EventType::kLdpAnnounce: return "ldp_announce";
    case EventType::kLspSignal: return "lsp_signal";
    case EventType::kOamProbe: return "oam_probe";
    case EventType::kOamReply: return "oam_reply";
    case EventType::kOamTimeout: return "oam_timeout";
    case EventType::kFastpathResolve: return "fastpath_resolve";
    case EventType::kFastpathInvalidate: return "fastpath_invalidate";
  }
  return "?";
}

const char* to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kTailDrop: return "taildrop";
    case DropReason::kRedEarly: return "red_early";
    case DropReason::kRedForced: return "red_forced";
    case DropReason::kEfPoliced: return "ef_policed";
    case DropReason::kLinkDown: return "link_down";
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kLabelMiss: return "label_miss";
    case DropReason::kNoTunnel: return "no_tunnel";
    case DropReason::kPoliced: return "policed";
    case DropReason::kEspRejected: return "esp_rejected";
  }
  return "?";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(const sim::Scheduler* clock,
                               std::size_t capacity)
    : clock_(clock) {
  set_capacity(capacity);
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  index_mask_ = round_up_pow2(capacity == 0 ? 1 : capacity) - 1;
  head_ = 0;
  if (!ring_.empty()) ring_ = std::vector<TraceEvent>(this->capacity());
}

void FlightRecorder::allocate_ring() noexcept {
  ring_.assign(capacity(), TraceEvent{});
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(first + i) & index_mask_]);
  }
  return out;
}

FlightRecorder& disabled_recorder() noexcept {
  static FlightRecorder rec(nullptr, 1);
  return rec;
}

}  // namespace mvpn::obs
