// Multi-carrier VPN (paper §5): "This cross-network SLA capability allows
// the building of VPNs using multiple carriers as necessary, an option not
// available with most frame relay offerings."
//
// One corporate VPN spans two providers (ASN 65000 and 65001) joined by
// an inter-AS option-A peering: back-to-back VRFs on the ASBRs, per-VRF
// route re-origination across the boundary. The example prints the ASBR
// operational state and a hop-by-hop trace of a packet crossing both
// label-switched domains.

#include <cstdio>

#include "backbone/fixtures.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"
#include "vpn/diagnostics.hpp"

using namespace mvpn;

int main() {
  backbone::TwoProviderBackbone bb(2026);

  // The VPN exists in both providers; ids are provider-local.
  const vpn::VpnId corp_a = bb.service_a.create_vpn("corp");
  const vpn::VpnId corp_b = bb.service_b.create_vpn("corp");
  bb.peering->stitch(corp_a, corp_b);

  auto hq = bb.add_site_a(corp_a, ip::Prefix::must_parse("10.1.0.0/16"));
  auto plant = bb.add_site_b(corp_b, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  std::printf("two providers converged; %llu inter-AS updates exchanged\n\n",
              static_cast<unsigned long long>(bb.peering->updates_sent()));

  std::printf("%s\n", vpn::describe_tables(*bb.asbr_a).c_str());
  std::printf("%s\n", vpn::describe_tables(*bb.asbr_b).c_str());

  // Trace a packet across both backbones: labeled in A, plain IP on the
  // inter-provider circuit, relabeled in B.
  const vpn::TraceResult trace = vpn::trace_route(
      bb.topo, *hq.ce, ip::Ipv4Address::must_parse("10.1.0.5"),
      ip::Ipv4Address::must_parse("10.2.0.9"));
  std::printf("cross-carrier journey:\n  %s\n\n", trace.to_string().c_str());

  // And sustained traffic both ways, with isolation accounting.
  qos::SlaProbe probe("corp");
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*hq.ce);
  sink.bind(*plant.ce);
  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  const std::uint32_t at_hq =
      flows.add_site(*hq.ce, ip::Ipv4Address::must_parse("10.1.0.5"));
  const std::uint32_t at_plant =
      flows.add_site(*plant.ce, ip::Ipv4Address::must_parse("10.2.0.9"));
  traffic::FlowSet::FlowDef f;
  f.flow_id = 1;
  f.from_site = at_hq;
  f.to_site = at_plant;
  f.rate_bps = 500e3;
  f.vpn = corp_a;
  flows.add_flow(f);
  sink.expect_flow(1, qos::Phb::kBe, corp_b);
  f.flow_id = 2;
  f.from_site = at_plant;
  f.to_site = at_hq;
  f.vpn = corp_b;
  flows.add_flow(f);
  sink.expect_flow(2, qos::Phb::kBe, corp_a);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  flows.run(t0 + sim::kSecond);
  bb.topo.run_until(t0 + 3 * sim::kSecond);

  std::printf("%s", probe.to_table(1.0).render().c_str());
  std::printf("\ndelivered %llu/%llu, leaks %llu\n",
              static_cast<unsigned long long>(sink.delivered()),
              static_cast<unsigned long long>(flows.packets_sent()),
              static_cast<unsigned long long>(sink.leaks()));
  return sink.leaks() == 0 ? 0 : 1;
}
