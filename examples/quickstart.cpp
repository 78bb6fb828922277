// Quickstart: build a two-site BGP/MPLS VPN over a small provider
// backbone, converge the control plane, send traffic, and inspect what
// happened — the "hello world" of this library.
//
//   topology:   CE0 ── PE0 ── P0 ── PE1 ── CE1
//   VPN "acme": site 10.1.0.0/16 behind CE0, site 10.2.0.0/16 behind CE1.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "backbone/fixtures.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

using namespace mvpn;

int main() {
  // 1. A provider backbone: one P core router, two PEs (Fig. 4 shape).
  backbone::BackboneConfig config;
  config.p_count = 1;
  config.pe_count = 2;
  config.seed = 2000;
  backbone::MplsBackbone bb(config);

  // 2. One VPN with two sites. add_site wires the CE, binds the PE
  //    interface into a VRF, and queues the MP-BGP route origination.
  const vpn::VpnId acme = bb.service.create_vpn("acme");
  auto hq = bb.add_site(acme, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto branch = bb.add_site(acme, 1, ip::Prefix::must_parse("10.2.0.0/16"));

  // 3. Bring up IGP flooding, LDP label distribution and BGP sessions,
  //    then let every control-plane event drain.
  bb.start_and_converge();
  std::printf("control plane converged at t=%.1f ms (%llu messages: ",
              sim::to_seconds(bb.topo.scheduler().now()) * 1e3,
              static_cast<unsigned long long>(bb.cp.total_messages()));
  for (const auto& [type, count] : bb.cp.per_type()) {
    std::printf("%s=%llu ", type.c_str(),
                static_cast<unsigned long long>(count.first));
  }
  std::printf(")\n\n");

  // 4. What did the control plane build? Inspect the PE state.
  vpn::Vrf* vrf = bb.pe(0).vrf_by_vpn(acme);
  std::printf("PE0 VRF \"%s\" (RD %s): %zu routes, VPN label %u\n",
              vrf->config().name.c_str(), vrf->config().rd.to_string().c_str(),
              vrf->table().size(), vrf->vpn_label());
  for (const auto& e : vrf->table().entries()) {
    std::printf("   %-18s %s%s\n", e.prefix.to_string().c_str(),
                ip::to_string(e.source).c_str(),
                e.vpn_label != ip::kNoLabel ? " (labeled, via remote PE)"
                                            : "");
  }

  // 5. Send 1 s of traffic from the HQ site to the branch site and watch
  //    the label stack hop by hop.
  bool traced = false;
  bb.topo.add_packet_tap([&](ip::NodeId at, const net::Packet& p) {
    if (p.flow_id == 1 && !traced) {
      std::printf("   at %-4s %s\n", bb.topo.node(at).name().c_str(),
                  p.describe().c_str());
      if (at == branch.ce->id()) traced = true;  // one full journey is enough
    }
  });

  qos::SlaProbe probe("acme");
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*branch.ce);
  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  traffic::FlowSet::FlowDef flow;
  flow.flow_id = 1;
  flow.from_site =
      flows.add_site(*hq.ce, ip::Ipv4Address::must_parse("10.1.0.10"));
  flow.to_site =
      flows.add_site(*branch.ce, ip::Ipv4Address::must_parse("10.2.0.20"));
  flow.kind = traffic::FlowSet::Kind::kCbr;
  flow.rate_bps = 1e6;
  flow.vpn = acme;
  flow.phb = qos::Phb::kBe;
  flows.add_flow(flow);
  sink.expect_flow(1, qos::Phb::kBe, acme);

  std::printf("\nfirst packet's journey:\n");
  flows.run(sim::kSecond);
  bb.topo.run_until(2 * sim::kSecond);

  // 6. The SLA report.
  std::printf("\n%s", probe.to_table(1.0).render().c_str());
  std::printf("\ndelivered %llu/%llu packets, %llu cross-VPN leaks\n",
              static_cast<unsigned long long>(sink.delivered()),
              static_cast<unsigned long long>(flows.packets_sent()),
              static_cast<unsigned long long>(sink.leaks()));
  return 0;
}
