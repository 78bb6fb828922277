#pragma once

#include <cstdint>
#include <vector>

#include "qos/dscp.hpp"
#include "qos/sla.hpp"
#include "stats/counter.hpp"
#include "vpn/router.hpp"

namespace mvpn::traffic {

/// Receives locally-delivered packets at one or more CE routers, checks
/// VPN isolation (ground-truth `true_vpn_id` vs the VPN context that
/// delivered the packet — any mismatch is a leak, experiment E6) and feeds
/// per-class latency/loss into an SlaProbe.
///
/// Flow expectations live in a flat vector indexed by flow_id: scenario
/// flow ids are a dense counter from 1, so at 10^5–10^6 flows this is an
/// 8-byte-per-flow direct lookup instead of an unordered_map probe on
/// every delivery.
class MeasurementSink {
 public:
  MeasurementSink(qos::SlaProbe& probe, sim::Scheduler& clock)
      : probe_(probe), clock_(clock) {}

  /// Register a flow we expect to terminate at a bound router.
  void expect_flow(std::uint32_t flow_id, qos::Phb cls,
                   vpn::VpnId expected_vpn);

  /// Install this sink as `ce`'s local-delivery hook.
  void bind(vpn::Router& ce);

  /// Account one delivery. Public so a FlowDispatcher default handler can
  /// route otherwise-unclaimed packets here (mixed cbr+tcp runs) instead of
  /// silently dropping their SLA accounting.
  void on_delivery(const net::Packet& p, vpn::VpnId vpn);

  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_.value();
  }
  /// Packets delivered into a VPN context other than the sender's — the
  /// isolation property requires this to be zero, always.
  [[nodiscard]] std::uint64_t leaks() const noexcept { return leaks_.value(); }
  [[nodiscard]] std::uint64_t unknown_flows() const noexcept {
    return unknown_.value();
  }
  [[nodiscard]] qos::SlaProbe& probe() noexcept { return probe_; }

 private:
  struct Expected {
    vpn::VpnId vpn = vpn::kGlobalVpn;
    qos::Phb cls = qos::Phb::kBe;
    bool known = false;
  };
  static_assert(sizeof(Expected) == 8);

  qos::SlaProbe& probe_;
  sim::Scheduler& clock_;
  std::vector<Expected> flows_;  ///< indexed by flow_id
  stats::Counter delivered_;
  stats::Counter leaks_;
  stats::Counter unknown_;
};

}  // namespace mvpn::traffic
