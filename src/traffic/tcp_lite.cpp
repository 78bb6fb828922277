#include "traffic/tcp_lite.hpp"

#include <algorithm>

namespace mvpn::traffic {

TcpLiteFlow::TcpLiteFlow(vpn::Router& sender, FlowDispatcher& sender_dispatch,
                         vpn::Router& receiver,
                         FlowDispatcher& receiver_dispatch,
                         std::uint32_t flow_id, Config config)
    : sender_(sender),
      receiver_(receiver),
      flow_id_(flow_id),
      config_(config),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.initial_ssthresh) {
  // ACKs come back to the sender; data arrives at the receiver.
  sender_dispatch.register_flow(flow_id_,
                                [this](const net::Packet& p, vpn::VpnId) {
                                  if (p.seg && p.seg->is_ack) {
                                    on_ack(p.seg->seq);
                                  }
                                });
  receiver_dispatch.register_flow(flow_id_,
                                  [this](const net::Packet& p, vpn::VpnId) {
                                    if (p.seg && !p.seg->is_ack) {
                                      on_data(p.seg->seq);
                                    }
                                  });
}

void TcpLiteFlow::start(sim::SimTime at) {
  sim::Scheduler& lane = sender_.topology().scheduler_of(sender_.id());
  lane.schedule_at(std::max(at, lane.now()), [this] {
    maybe_send();
    arm_rto();
  });
}

void TcpLiteFlow::maybe_send() {
  if (stopped_) return;
  const auto window = static_cast<std::uint32_t>(cwnd_);
  while (next_seq_ - highest_acked_ < std::max<std::uint32_t>(window, 1) &&
         (config_.total_segments == 0 ||
          next_seq_ < config_.total_segments)) {
    send_segment(next_seq_, false);
    ++next_seq_;
  }
}

void TcpLiteFlow::send_segment(std::uint32_t seq, bool retransmission) {
  net::PacketPtr p = sender_.topology().packet_factory().make();
  p->id = packet_id(++segments_sent_);
  p->flow_id = flow_id_;
  p->created_at = clock().now();
  p->true_vpn_id = config_.vpn;
  p->ip.src = config_.src;
  p->ip.dst = config_.dst;
  p->ip.protocol = 6;  // TCP-like
  p->ip.dscp = config_.premark ? qos::dscp_of(config_.phb) : 0;
  p->l4.src_port = config_.src_port;
  p->l4.dst_port = config_.dst_port;
  p->payload_bytes = config_.mss_payload;
  p->seg = net::SegMeta{seq, false};
  if (retransmission) ++retransmits_;
  sender_.inject(std::move(p));
}

void TcpLiteFlow::arm_rto() {
  sim::Scheduler& lane = clock();
  lane.cancel(rto_timer_);
  if (stopped_ || complete()) return;
  rto_timer_ = lane.schedule_in(config_.rto, [this] { on_rto(); });
}

void TcpLiteFlow::on_rto() {
  if (stopped_ || complete()) return;
  if (next_seq_ == highest_acked_) {
    // Nothing in flight (idle unbounded flow): just re-arm.
    arm_rto();
    return;
  }
  // Timeout: multiplicative decrease to a window of 1, retransmit the
  // first unacked segment (go-back-N-ish on the cheap).
  ++timeouts_;
  ssthresh_ = std::max(2.0, cwnd_ / 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  next_seq_ = highest_acked_;  // resend from the hole
  maybe_send();
  arm_rto();
}

void TcpLiteFlow::on_ack(std::uint32_t cum_ack) {
  if (cum_ack > highest_acked_) {
    const std::uint32_t newly = cum_ack - highest_acked_;
    highest_acked_ = cum_ack;
    dup_acks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly);  // slow start
    } else {
      cwnd_ += static_cast<double>(newly) / cwnd_;  // congestion avoidance
    }
    if (complete() && completed_at_ == 0) {
      completed_at_ = clock().now();
      clock().cancel(rto_timer_);
      return;
    }
    arm_rto();
    maybe_send();
    return;
  }
  // Duplicate cumulative ack → a hole at `cum_ack`.
  if (++dup_acks_ == 3) {
    ssthresh_ = std::max(2.0, cwnd_ / 2.0);
    cwnd_ = ssthresh_;
    send_segment(cum_ack, true);  // fast retransmit
    arm_rto();
  }
}

void TcpLiteFlow::on_data(std::uint32_t seq) {
  if (seq == rcv_next_) {
    ++rcv_next_;
    // Drain any buffered in-order continuation.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && *it == rcv_next_) {
      ++rcv_next_;
      it = out_of_order_.erase(it);
    }
  } else if (seq > rcv_next_) {
    out_of_order_.insert(seq);
  }
  send_ack();
}

void TcpLiteFlow::send_ack() {
  net::PacketPtr ack = receiver_.topology().packet_factory().make();
  ack->id = packet_id(kAckBit | ++acks_sent_);
  ack->flow_id = flow_id_;
  ack->created_at = clock().now();
  ack->true_vpn_id = config_.vpn;
  ack->ip.src = config_.dst;
  ack->ip.dst = config_.src;
  ack->ip.protocol = 6;
  ack->l4.src_port = config_.dst_port;
  ack->l4.dst_port = config_.src_port;
  ack->payload_bytes = 0;
  ack->seg = net::SegMeta{rcv_next_, true};
  receiver_.inject(std::move(ack));
}

}  // namespace mvpn::traffic
