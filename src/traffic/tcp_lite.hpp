#pragma once

#include <cstdint>
#include <set>

#include "qos/dscp.hpp"
#include "sim/scheduler.hpp"
#include "traffic/dispatcher.hpp"
#include "vpn/router.hpp"

namespace mvpn::traffic {

/// Elastic, congestion-responsive transfer: a compact TCP Reno-style
/// sender (slow start, AIMD congestion avoidance, triple-duplicate-ack
/// fast retransmit, retransmission timeout) with a cumulative-ack
/// receiver. Gives the QoS experiments workloads that *react* to the
/// network — the adaptive "data applications" the paper's converged-
/// network story assumes — instead of open-loop sources.
///
/// Both endpoints must have a FlowDispatcher attached; the flow registers
/// itself on construction. Segments ride the normal VPN data plane (CE
/// classification, label imposition, queueing all apply).
///
/// Shard-safe: the sender half (window, timers, ACK processing) only runs
/// on the sender CE's lane and the receiver half (reassembly, ACKs) only
/// on the receiver CE's lane, each reading its own lane's clock through
/// the topology's ambient scheduler(). Segments and ACKs cross shards as
/// ordinary packets.
class TcpLiteFlow {
 public:
  struct Config {
    ip::Ipv4Address src;
    ip::Ipv4Address dst;
    std::uint16_t src_port = 30000;
    std::uint16_t dst_port = 80;
    vpn::VpnId vpn = vpn::kGlobalVpn;
    qos::Phb phb = qos::Phb::kBe;   ///< DSCP class when `premark`
    bool premark = false;
    std::size_t mss_payload = 1432;  ///< payload bytes per segment
    /// Transfer length in segments; 0 = unbounded (runs until stop()).
    std::uint32_t total_segments = 0;
    double initial_cwnd = 2.0;
    double initial_ssthresh = 64.0;
    sim::SimTime rto = 200 * sim::kMillisecond;
  };

  TcpLiteFlow(vpn::Router& sender, FlowDispatcher& sender_dispatch,
              vpn::Router& receiver, FlowDispatcher& receiver_dispatch,
              std::uint32_t flow_id, Config config);

  /// Begin transmitting at absolute time `at` (clamped to now), on the
  /// sender CE's lane.
  void start(sim::SimTime at);
  /// Stop sending new data (in-flight data may still be acked). Call from
  /// the sender CE's lane.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint32_t flow_id() const noexcept { return flow_id_; }
  [[nodiscard]] const vpn::Router& sender() const noexcept { return sender_; }
  [[nodiscard]] bool complete() const noexcept {
    return config_.total_segments != 0 &&
           highest_acked_ >= config_.total_segments;
  }
  [[nodiscard]] std::uint64_t bytes_acked() const noexcept {
    return std::uint64_t{highest_acked_} * config_.mss_payload;
  }
  [[nodiscard]] double goodput_bps(double interval_s) const noexcept {
    return interval_s > 0.0
               ? static_cast<double>(bytes_acked()) * 8.0 / interval_s
               : 0.0;
  }
  [[nodiscard]] double cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] std::uint32_t retransmits() const noexcept {
    return retransmits_;
  }
  [[nodiscard]] std::uint32_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] sim::SimTime completed_at() const noexcept {
    return completed_at_;
  }

 private:
  void maybe_send();
  void send_segment(std::uint32_t seq, bool retransmission);
  void on_ack(std::uint32_t cum_ack);
  void on_data(std::uint32_t seq);
  void send_ack();
  void arm_rto();
  void on_rto();
  /// The clock of the lane the calling half runs on.
  [[nodiscard]] sim::Scheduler& clock() noexcept {
    return sender_.topology().scheduler();
  }
  /// Flow-derived packet id: `(flow_id << 32) | n`, with kAckBit set on
  /// ACKs so the two directions never collide.
  [[nodiscard]] std::uint64_t packet_id(std::uint32_t n) const noexcept {
    return (std::uint64_t{flow_id_} << 32) | n;
  }
  static constexpr std::uint32_t kAckBit = 1U << 31;

  vpn::Router& sender_;
  vpn::Router& receiver_;
  std::uint32_t flow_id_;
  Config config_;

  // Sender state (sender CE's lane).
  bool stopped_ = false;
  std::uint32_t segments_sent_ = 0;  ///< transmissions, retransmits too
  std::uint32_t next_seq_ = 0;
  std::uint32_t highest_acked_ = 0;
  double cwnd_;
  double ssthresh_;
  std::uint32_t dup_acks_ = 0;
  std::uint32_t retransmits_ = 0;
  std::uint32_t timeouts_ = 0;
  sim::EventId rto_timer_{};
  sim::SimTime completed_at_ = 0;

  // Receiver state (receiver CE's lane).
  std::uint32_t acks_sent_ = 0;
  std::uint32_t rcv_next_ = 0;          ///< next in-order seq expected
  std::set<std::uint32_t> out_of_order_;
};

}  // namespace mvpn::traffic
