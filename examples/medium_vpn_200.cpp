// The paper's §2.1 worked example as a living network: "In a network with
// 200 service points (a medium-sized VPN), about 20,000 virtual circuits
// would be required."
//
// This program builds that 200-site VPN on a BGP/MPLS backbone (20 PEs
// over a 6-router core with route reflectors), converges it, prints the
// state budget next to the overlay's 19,900-circuit bill, then runs live
// traffic between randomly chosen site pairs — with a VPN-id ground-truth
// check that not one packet crossed into the second, address-overlapping
// VPN that shares the backbone.

#include <cstdio>
#include <memory>

#include "backbone/fixtures.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"
#include "vpn/diagnostics.hpp"

using namespace mvpn;

int main() {
  constexpr std::size_t kSites = 200;

  backbone::BackboneConfig cfg;
  cfg.p_count = 6;
  cfg.pe_count = 20;
  cfg.bgp_mode = routing::Bgp::Mode::kRouteReflector;
  cfg.route_reflector_count = 2;
  cfg.seed = 200;
  backbone::MplsBackbone bb(cfg);

  const vpn::VpnId corp = bb.service.create_vpn("megacorp");
  const vpn::VpnId other = bb.service.create_vpn("othercorp");
  std::vector<backbone::MplsBackbone::Site> sites;
  sites.reserve(kSites);
  for (std::size_t i = 0; i < kSites; ++i) {
    const ip::Prefix prefix(
        ip::Ipv4Address(10, std::uint8_t(1 + i / 250),
                        std::uint8_t(i % 250), 0),
        24);
    sites.push_back(bb.add_site(corp, i % cfg.pe_count, prefix));
  }
  // The overlapping-address tenant (4 sites, same 10.1.x space).
  std::vector<backbone::MplsBackbone::Site> other_sites;
  for (std::size_t i = 0; i < 4; ++i) {
    other_sites.push_back(
        bb.add_site(other, i,
                    ip::Prefix(ip::Ipv4Address(10, 1, std::uint8_t(i), 0),
                               24)));
  }
  bb.start_and_converge();

  std::printf("200-site VPN converged at t=%.1f ms\n\n",
              sim::to_seconds(bb.service.last_route_change_at()) * 1e3);
  stats::Table t{"metric", "BGP/MPLS VPN", "overlay (paper's math)"};
  t.add_row({"circuits / LSP state",
             std::to_string(bb.domain.total_lfib_entries()) + " LFIB entries",
             std::to_string(kSites * (kSites - 1) / 2) + " PVCs"});
  t.add_row({"routes",
             std::to_string(bb.service.total_vrf_routes()) + " VRF routes",
             "n/a (per-circuit state)"});
  t.add_row({"BGP sessions (20 PEs + 2 RRs)",
             std::to_string(bb.bgp.session_count()), "n/a"});
  t.add_row({"control messages to converge",
             std::to_string(bb.cp.total_messages()), "~" +
                 std::to_string(kSites * (kSites - 1) / 2 * 2 * 5) +
                 " provisioning actions"});
  std::printf("%s\n", t.render().c_str());

  // A PE's operational state, for scale feel.
  std::printf("sample PE state (first 3 VRF routes shown by the full dump):\n");
  const std::string dump = vpn::describe_tables(bb.pe(0));
  std::printf("%.600s  ...\n\n", dump.c_str());

  // Live traffic: 40 random site pairs of megacorp + 2 flows of othercorp
  // on the same addresses.
  sim::Rng rng(99);
  qos::SlaProbe probe("megacorp");
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  for (auto& s : sites) sink.bind(*s.ce);
  for (auto& s : other_sites) sink.bind(*s.ce);

  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  traffic::FlowSet::FlowDef f;
  f.kind = traffic::FlowSet::Kind::kPoisson;
  f.rate_bps = 100e3;
  std::uint32_t flow = 1;
  for (int k = 0; k < 40; ++k) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, kSites - 1));
    auto j = static_cast<std::size_t>(rng.uniform_int(0, kSites - 1));
    if (j == i) j = (j + 1) % kSites;
    f.flow_id = flow;
    f.from_site = flows.add_site(
        *sites[i].ce, ip::Ipv4Address(sites[i].prefix.address().value() + 1));
    f.to_site = flows.add_site(
        *sites[j].ce, ip::Ipv4Address(sites[j].prefix.address().value() + 1));
    f.vpn = corp;
    flows.add_flow(f);
    sink.expect_flow(flow, qos::Phb::kBe, corp);
    ++flow;
  }
  for (int k = 0; k < 2; ++k) {
    f.flow_id = flow;
    f.from_site = flows.add_site(*other_sites[k].ce,
                                 ip::Ipv4Address(10, 1, std::uint8_t(k), 1));
    f.to_site = flows.add_site(*other_sites[k + 1].ce,
                               ip::Ipv4Address(10, 1, std::uint8_t(k + 1), 1));
    f.vpn = other;
    flows.add_flow(f);
    sink.expect_flow(flow, qos::Phb::kBe, other);
    ++flow;
  }
  const sim::SimTime t0 = bb.topo.scheduler().now();
  flows.run(t0 + sim::kSecond);
  bb.topo.run_until(t0 + 3 * sim::kSecond);

  std::printf("%s", probe.to_table(1.0).render().c_str());
  std::printf("\ndelivered=%llu leaks=%llu unknown=%llu\n",
              static_cast<unsigned long long>(sink.delivered()),
              static_cast<unsigned long long>(sink.leaks()),
              static_cast<unsigned long long>(sink.unknown_flows()));
  std::printf("\nCSV:\n%s", probe.to_csv(1.0).c_str());
  return sink.leaks() == 0 ? 0 : 1;
}
