#include "traffic/sink.hpp"

namespace mvpn::traffic {

void MeasurementSink::expect_flow(std::uint32_t flow_id, qos::Phb cls,
                                  vpn::VpnId expected_vpn) {
  if (flow_id >= flows_.size()) flows_.resize(flow_id + 1);
  flows_[flow_id] = Expected{expected_vpn, cls, true};
}

void MeasurementSink::bind(vpn::Router& ce) {
  ce.set_local_sink([this](const net::Packet& p, vpn::VpnId vpn) {
    on_delivery(p, vpn);
  });
}

void MeasurementSink::on_delivery(const net::Packet& p, vpn::VpnId vpn) {
  delivered_.add();
  // Isolation first: a packet delivered into a VPN context that does not
  // match its origin is a leak regardless of flow bookkeeping.
  if (p.true_vpn_id != vpn) {
    leaks_.add();
    return;
  }
  if (p.flow_id >= flows_.size() || !flows_[p.flow_id].known) {
    unknown_.add();
    return;
  }
  const sim::SimTime latency = clock_.now() - p.created_at;
  const std::size_t bytes =
      net::kIpv4HeaderBytes + net::kL4HeaderBytes + p.payload_bytes;
  probe_.record_delivered(flows_[p.flow_id].cls, p.flow_id, latency, bytes);
}

}  // namespace mvpn::traffic
