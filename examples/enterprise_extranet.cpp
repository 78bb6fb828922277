// Enterprise extranet scenario (paper §1: "linking customers and partners
// into extranets on an ad-hoc basis").
//
// Two companies buy VPNs from the same provider. Both use 10.0.0.0/8
// internally (overlapping address plans — the normal case the RD/RT
// machinery exists for). The manufacturer additionally exposes one
// partner-facing prefix into an extranet so the supplier can reach it,
// while the rest of both networks stays private.

#include <cstdio>

#include "backbone/fixtures.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

using namespace mvpn;

int main() {
  backbone::BackboneConfig config;
  config.p_count = 2;
  config.pe_count = 3;
  config.seed = 7001;
  backbone::MplsBackbone bb(config);

  // Three VPNs: the two companies plus a dedicated extranet VPN holding
  // the manufacturer's partner-facing systems.
  const vpn::VpnId manu = bb.service.create_vpn("manufacturer");
  const vpn::VpnId supp = bb.service.create_vpn("supplier");
  const vpn::VpnId extranet = bb.service.create_vpn("extranet");
  // Policy: both companies import the extranet's routes (and the extranet
  // imports both, so return traffic works). Nobody imports the other
  // company's private routes.
  bb.service.add_extranet_import(manu, extranet);
  bb.service.add_extranet_import(supp, extranet);
  bb.service.add_extranet_import(extranet, manu);
  bb.service.add_extranet_import(extranet, supp);

  // Sites. Note both companies use 10.1/16 — overlap is fine.
  auto manu_hq = bb.add_site(manu, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto manu_plant =
      bb.add_site(manu, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  auto supp_hq = bb.add_site(supp, 2, ip::Prefix::must_parse("10.1.0.0/16"));
  // The shared ordering portal lives in the extranet VPN.
  auto portal =
      bb.add_site(extranet, 1, ip::Prefix::must_parse("192.168.10.0/24"));
  bb.start_and_converge();

  std::printf("converged: %zu VRFs, %zu VRF routes across the provider\n\n",
              bb.service.total_vrf_count(), bb.service.total_vrf_routes());

  qos::SlaProbe probe("extranet");
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  for (auto* ce : bb.ces()) sink.bind(*ce);

  std::uint32_t flow_id = 1;
  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  auto flow = [&](backbone::MplsBackbone::Site& from, const char* src,
                  backbone::MplsBackbone::Site& to, const char* dst,
                  vpn::VpnId vpn, const char* what) {
    traffic::FlowSet::FlowDef f;
    f.flow_id = flow_id;
    f.from_site = flows.add_site(*from.ce, ip::Ipv4Address::must_parse(src));
    f.to_site = flows.add_site(*to.ce, ip::Ipv4Address::must_parse(dst));
    f.kind = traffic::FlowSet::Kind::kPoisson;
    f.rate_bps = 200e3;
    f.vpn = vpn;
    flows.add_flow(f);
    sink.expect_flow(flow_id, qos::Phb::kBe, vpn);
    std::printf("flow %u: %-34s %s -> %s\n", flow_id, what, src, dst);
    ++flow_id;
  };

  // Intra-company traffic (overlapping addresses on both sides).
  flow(manu_hq, "10.1.0.5", manu_plant, "10.2.0.9", manu,
       "manufacturer HQ -> plant");
  // Both companies reach the shared portal through the extranet import.
  flow(manu_hq, "10.1.0.5", portal, "192.168.10.80", extranet,
       "manufacturer -> portal (extranet)");
  flow(supp_hq, "10.1.0.7", portal, "192.168.10.80", extranet,
       "supplier     -> portal (extranet)");

  flows.run(sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);

  std::printf("\ndelivered=%llu leaks=%llu\n",
              static_cast<unsigned long long>(sink.delivered()),
              static_cast<unsigned long long>(sink.leaks()));

  // The privacy check: the supplier's VRF must NOT contain the
  // manufacturer's private plant prefix, even though both import the
  // extranet — and a supplier host has no route to 10.2/16 beyond its own
  // plan.
  vpn::Vrf* supplier_vrf = bb.pe(2).vrf_by_vpn(supp);
  const ip::RouteEntry* private_route =
      supplier_vrf->table().lookup(ip::Ipv4Address::must_parse("10.2.0.9"));
  std::printf("supplier VRF sees manufacturer's private 10.2/16: %s\n",
              private_route == nullptr ? "no (correct)" : "YES (policy bug!)");
  const ip::RouteEntry* portal_route = supplier_vrf->table().lookup(
      ip::Ipv4Address::must_parse("192.168.10.80"));
  std::printf("supplier VRF sees the extranet portal:            %s\n",
              portal_route != nullptr ? "yes (correct)" : "NO (policy bug!)");
  return sink.leaks() == 0 && private_route == nullptr ? 0 : 1;
}
