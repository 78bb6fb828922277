// Experiment E6 — paper §4.1–4.3 (discovery, reachability, separation).
//
// Claims under test:
//  * "Members can join and leave the VPN and those changes need to be
//    known by all remaining members" — we churn sites through an MPLS VPN
//    and measure per-join control cost and the time until every other
//    member's PE can reach the newcomer;
//  * "The discovery of membership in one VPN must not allow members of
//    other VPNs to be discovered ... Data traffic from different VPNs is
//    kept separate" — during the churn, VPNs with overlapping address
//    plans exchange traffic and the leak counter must stay at zero;
//  * baseline: manual/NMS-provisioned overlay discovery, whose per-join
//    cost grows with membership (a circuit per existing member);
//  * BGP distribution is scoped by RT membership (RFC 4684): a PE with no
//    VRF for a VPN holds none of its routes.
//
// The binary exits 1 when the shape check fails: a cross-VPN leak, a
// departed site still reachable, or a non-member PE holding a VPN's route.

#include <cstdio>
#include <memory>

#include "backbone/fixtures.hpp"
#include "stats/table.hpp"
#include "traffic/sink.hpp"
#include "traffic/flowset.hpp"
#include "vpn/directory.hpp"

namespace {

using namespace mvpn;

int main_impl() {
  std::printf(
      "E6 — VPN membership: discovery cost per join, reachability "
      "propagation, isolation under churn\n\n");

  // --- BGP-piggyback discovery (the paper's §4 mechanism) -----------------
  backbone::BackboneConfig cfg;
  cfg.p_count = 3;
  cfg.pe_count = 6;
  cfg.seed = 17;
  backbone::MplsBackbone bb(cfg);
  const vpn::VpnId v1 = bb.service.create_vpn("V1");
  const vpn::VpnId v2 = bb.service.create_vpn("V2");
  // V2 exists throughout with 2 sites and the same 10.x plan as V1.
  auto v2_a = bb.add_site(v2, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto v2_b = bb.add_site(v2, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  auto v1_anchor = bb.add_site(v1, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.start_and_converge();

  stats::Table joins{"join #", "bgp msgs", "total msgs", "time-to-reach ms",
                     "vrf routes (all PEs)"};
  std::vector<backbone::MplsBackbone::Site> v1_sites{v1_anchor};
  for (std::size_t j = 2; j <= 12; ++j) {
    const std::uint64_t msgs_before = bb.cp.total_messages();
    const std::uint64_t bgp_before = bb.cp.message_count("bgp.update");
    const sim::SimTime t0 = bb.topo.scheduler().now();
    v1_sites.push_back(bb.add_site(
        v1, j % cfg.pe_count,
        ip::Prefix(ip::Ipv4Address(10, std::uint8_t(j), 0, 0), 16)));
    bb.service.converge();
    const sim::SimTime reach_time = bb.topo.scheduler().now() - t0;
    joins.add_row({std::to_string(j - 1),
                   std::to_string(bb.cp.message_count("bgp.update") -
                                  bgp_before),
                   std::to_string(bb.cp.total_messages() - msgs_before),
                   stats::Table::num(sim::to_seconds(reach_time) * 1e3, 1),
                   std::to_string(bb.service.total_vrf_routes())});
  }
  std::printf("--- MPLS/BGP joins (V1 grows 1 -> 12 sites) ---\n%s\n",
              joins.render().c_str());

  // Every V1 pair exchanges traffic; V2 runs the same addresses.
  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  for (auto& s : v1_sites) sink.bind(*s.ce);
  sink.bind(*v2_a.ce);
  sink.bind(*v2_b.ce);

  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  traffic::FlowSet::FlowDef f;
  f.rate_bps = 100e3;
  std::uint32_t flow = 1;
  for (std::size_t i = 0; i < v1_sites.size(); ++i) {
    const std::size_t next = (i + 1) % v1_sites.size();
    f.flow_id = flow;
    f.from_site = flows.add_site(
        *v1_sites[i].ce,
        ip::Ipv4Address(10, std::uint8_t(i == 0 ? 1 : i + 1), 0, 1));
    f.to_site = flows.add_site(
        *v1_sites[next].ce,
        ip::Ipv4Address(10, std::uint8_t(next == 0 ? 1 : next + 1), 0, 1));
    f.vpn = v1;
    flows.add_flow(f);
    sink.expect_flow(flow, qos::Phb::kBe, v1);
    ++flow;
  }
  // V2 flow with V1-identical addresses.
  f.flow_id = flow;
  f.from_site =
      flows.add_site(*v2_a.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  f.to_site = flows.add_site(*v2_b.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  f.vpn = v2;
  flows.add_flow(f);
  sink.expect_flow(flow, qos::Phb::kBe, v2);
  const sim::SimTime traffic_start = bb.topo.scheduler().now();
  flows.run(traffic_start + sim::kSecond);

  // Mid-traffic leave: site #5 departs; its routes must be withdrawn.
  bb.topo.scheduler().schedule_at(
      traffic_start + sim::kSecond / 2, [&] {
        bb.service.remove_site(
            v1, bb.pe(5 % cfg.pe_count),
            ip::Prefix(ip::Ipv4Address(10, 5, 0, 0), 16));
      });
  bb.topo.run_until(traffic_start + 3 * sim::kSecond);

  // After the leave, the withdrawn prefix is unreachable from other PEs.
  vpn::Vrf* vrf = bb.pe(0).vrf_by_vpn(v1);
  const bool withdrawn =
      vrf->table().lookup(ip::Ipv4Address::must_parse("10.5.0.1")) == nullptr;

  // V2 lives on PE0 and PE1 only: every other PE must hold none of its
  // routes, offered or selected.
  std::size_t non_member_routes = 0;
  for (std::size_t pe = 0; pe < cfg.pe_count; ++pe) {
    const vpn::Router& r = bb.pe(pe);
    if (r.vrf_by_vpn(v2) != nullptr) continue;
    for (const auto& [sender, route] : bb.bgp.adj_rib_in(r.id())) {
      if (route.rd == bb.service.rd_of(v2)) ++non_member_routes;
    }
  }

  stats::Table iso{"metric", "value"};
  iso.add_row({"packets sent", std::to_string(flows.packets_sent())});
  iso.add_row({"packets delivered", std::to_string(sink.delivered())});
  iso.add_row({"cross-VPN leaks", std::to_string(sink.leaks())});
  iso.add_row({"withdrawn prefix unreachable after leave",
               withdrawn ? "yes" : "NO"});
  iso.add_row({"bgp withdraw msgs",
               std::to_string(bb.cp.message_count("bgp.withdraw"))});
  iso.add_row({"bgp rt-membership msgs",
               std::to_string(bb.cp.message_count("bgp.rtc"))});
  iso.add_row({"V2 routes held by non-member PEs",
               std::to_string(non_member_routes)});
  std::printf("--- isolation & leave under live traffic ---\n%s\n",
              iso.render().c_str());

  // --- overlay baseline: per-join provisioning grows with membership ------
  backbone::OverlayBackbone ov(4, 17);
  const vpn::VpnId ovv = ov.service.create_vpn("V");
  stats::Table ovt{"join #", "provisioning actions", "circuits total"};
  std::uint64_t prev_actions = 0;
  for (std::size_t j = 0; j < 12; ++j) {
    auto& ce = ov.add_ce(j % 4, "CE" + std::to_string(j));
    ov.service.add_site(
        ovv, ce, ip::Prefix(ip::Ipv4Address(10, std::uint8_t(j + 1), 0, 0),
                            16));
    if (j == 0) ov.service.provision();
    ovt.add_row({std::to_string(j + 1),
                 std::to_string(ov.service.provisioning_actions() -
                                prev_actions),
                 std::to_string(ov.service.pvc_count())});
    prev_actions = ov.service.provisioning_actions();
  }
  std::printf("--- overlay baseline: manual provisioning per join ---\n%s\n",
              ovt.render().c_str());

  // --- §4.1 ablation: the three discovery mechanisms side by side ---------
  // Directory (client-server): per join, one registration plus
  // notifications to current members only.
  {
    net::Topology dtopo(17);
    std::vector<vpn::Router*> dnodes;
    for (int i = 0; i < 7; ++i) {
      dnodes.push_back(&dtopo.add_node<vpn::Router>(
          "n" + std::to_string(i), vpn::Role::kPe));
    }
    routing::ControlPlane dcp(dtopo);
    vpn::MembershipDirectory dir(dcp, dnodes[0]->id());
    stats::Table mech{"join #", "directory msgs (measured)"};
    std::uint64_t prev_dir = 0;
    for (std::size_t j = 1; j <= 12; ++j) {
      dir.register_site(1, dnodes[1 + (j % 6)]->id(),
                        ip::Prefix(ip::Ipv4Address(10, std::uint8_t(j), 0, 0),
                                   16));
      dtopo.scheduler().run();
      const std::uint64_t dir_msgs =
          dir.registrations() + dir.notifications_sent() - prev_dir;
      prev_dir = dir.registrations() + dir.notifications_sent();
      mech.add_row({std::to_string(j), std::to_string(dir_msgs)});
    }
    std::printf(
        "--- §4.1 discovery ablation: client-server directory, messages per "
        "join ---\n(compare the bgp-msgs column of the first table and the "
        "overlay table above)\n%s\n",
        mech.render().c_str());
    std::printf(
        "Directory notifications grow with *membership* (scoped, no leak to"
        "\nother VPNs); BGP is scoped by membership too: each PE declares the"
        "\nroute targets its VRFs import (RFC 4684) and is sent only the"
        "\nroutes that match, so a join costs one advertisement per member"
        "\nPE; manual provisioning grows with membership AND path length."
        "\nThe paper's architecture picks BGP for zero extra infrastructure;"
        "\nthe directory column shows what the client-server alternative it"
        "\nmentions would cost instead.\n\n");
  }

  std::printf(
      "Shape check: MPLS/BGP join cost is one route advertised to the PEs"
      "\nthat import it (messages ~ member PE count); overlay join cost"
      "\ngrows linearly with existing members (a circuit to each). Leaks"
      "\nare zero under churn, a departed site becomes unreachable via BGP"
      "\nwithdraws and no PE holds a VPN it does not serve — §4's three"
      "\nfunctions hold.\n");
  bool ok = true;
  auto expect = [&ok](bool holds, const char* what) {
    if (holds) return;
    std::fprintf(stderr, "SHAPE CHECK FAILED: %s\n", what);
    ok = false;
  };
  expect(sink.leaks() == 0, "cross-VPN leaks");
  expect(withdrawn, "departed site still reachable");
  expect(non_member_routes == 0, "non-member PE holds a VPN's route");
  return ok ? 0 : 1;
}

}  // namespace

int main() { return main_impl(); }
