#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "backbone/fixtures.hpp"
#include "test_flows.hpp"
#include "traffic/sink.hpp"
#include "vpn/diagnostics.hpp"
#include "vpn/directory.hpp"
#include "vpn/oam.hpp"

namespace mvpn::vpn {
namespace {

using backbone::Figure2Scenario;
using backbone::make_figure2_scenario;

TEST(Vrf, ImportPolicyByRouteTarget) {
  VrfConfig cfg;
  cfg.vpn_id = 1;
  cfg.rd = routing::RouteDistinguisher{65000, 1};
  cfg.import_targets = {routing::RouteTarget{65000, 1},
                        routing::RouteTarget{65000, 7}};
  Vrf vrf(cfg);
  routing::VpnRoute r;
  r.route_targets = {routing::RouteTarget{65000, 7}};
  EXPECT_TRUE(vrf.imports(r));
  r.route_targets = {routing::RouteTarget{65000, 2}};
  EXPECT_FALSE(vrf.imports(r));
  EXPECT_EQ(vrf.vpn_id(), 1u);
}

TEST(Router, RolesAndVrfRestrictions) {
  net::Topology topo;
  auto& ce = topo.add_node<Router>("ce", Role::kCe);
  auto& pe = topo.add_node<Router>("pe", Role::kPe);
  EXPECT_EQ(ce.role(), Role::kCe);
  EXPECT_STREQ(to_string(Role::kPe), "PE");
  VrfConfig cfg;
  cfg.vpn_id = 1;
  EXPECT_THROW(ce.add_vrf(cfg), std::logic_error);
  Vrf& v = pe.add_vrf(cfg);
  EXPECT_EQ(pe.vrf_count(), 1u);
  EXPECT_EQ(pe.vrf_by_vpn(1), &v);
  EXPECT_EQ(pe.vrf_by_vpn(9), nullptr);
  EXPECT_THROW(pe.bind_interface_to_vrf(0, 9), std::invalid_argument);
}

TEST(Router, LocalPrefixDeliversToSink) {
  net::Topology topo;
  auto& r = topo.add_node<Router>("r", Role::kCe);
  r.add_local_prefix(ip::Prefix::must_parse("10.1.0.0/16"), 5);
  int delivered = 0;
  VpnId seen_vpn = 0;
  r.set_local_sink([&](const net::Packet&, VpnId vpn) {
    ++delivered;
    seen_vpn = vpn;
  });
  auto p = topo.packet_factory().make();
  p->ip.dst = ip::Ipv4Address::must_parse("10.1.2.3");
  r.inject(std::move(p));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(seen_vpn, 5u);
  EXPECT_EQ(r.counters().delivered.value(), 1u);
}

TEST(Router, NoRouteCountsDrop) {
  net::Topology topo;
  auto& r = topo.add_node<Router>("r", Role::kCe);
  auto p = topo.packet_factory().make();
  p->ip.dst = ip::Ipv4Address::must_parse("99.99.99.99");
  r.inject(std::move(p));
  EXPECT_EQ(r.counters().no_route.value(), 1u);
}

TEST(Router, TtlExpiryDrops) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kCe);
  auto& b = topo.add_node<Router>("b", Role::kCe);
  topo.connect(a.id(), b.id());
  ip::RouteEntry e;
  e.prefix = ip::Prefix::must_parse("0.0.0.0/0");
  e.next_hop.node = b.id();
  e.next_hop.iface = 0;
  a.fib().install(e);
  auto p = topo.packet_factory().make();
  p->ip.dst = ip::Ipv4Address::must_parse("99.0.0.1");
  p->ip.ttl = 1;
  a.inject(std::move(p));
  EXPECT_EQ(a.counters().ttl_expired.value(), 1u);
}

TEST(Router, ShaperSmoothsEdgeTraffic) {
  Figure2Scenario s = make_figure2_scenario(19);
  s.backbone->start_and_converge();
  // Premarked AF11 flow offered at 2 Mb/s, shaped to 1 Mb/s at the CE.
  s.v1_site1.ce->add_shaper(qos::Phb::kAf11, 1e6 / 8, 1500);

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  traffic::FlowSet flows(s.backbone->topo.scheduler(), &probe,
                         s.backbone->topo.seed());
  traffic::FlowSet::FlowDef f = testutil::flow_between(
      flows, 1, *s.v1_site1.ce, "10.1.0.1", *s.v1_site2.ce, "10.2.0.1", 2e6,
      s.vpn1);
  f.phb = qos::Phb::kAf11;
  f.premark = true;
  flows.add_flow(f);
  sink.expect_flow(1, qos::Phb::kAf11, s.vpn1);
  const sim::SimTime t0 = s.backbone->topo.scheduler().now();
  flows.run(t0 + 2 * sim::kSecond);
  s.backbone->topo.run_until(t0 + 6 * sim::kSecond);

  const auto& r = probe.report(qos::Phb::kAf11);
  // Nothing is dropped (shaping, not policing)...
  EXPECT_DOUBLE_EQ(r.loss_fraction(), 0.0);
  // ...but delivery is paced at the shaped rate: the 2 s of offered
  // traffic takes ~4 s to drain, so goodput over the drain interval is
  // ~1 Mb/s and the tail packets waited ~2 s.
  EXPECT_NEAR(r.goodput_bps(4.0), 1e6, 0.1e6);
  EXPECT_GT(r.latency_s.max(), 1.5);
}

TEST(Router, LabelTtlExpiryDrops) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  topo.connect(a.id(), b.id());
  mpls::MplsDomain domain;
  a.set_lsr_state(&domain.state_of(a.id()));
  mpls::LfibEntry e;
  e.in_label = 16;
  e.op = mpls::LabelOp::kSwap;
  e.out_label = 17;
  e.next_hop = b.id();
  e.out_iface = 0;
  domain.state_of(a.id()).lfib.install(e);

  auto p = topo.packet_factory().make();
  p->push_label(net::MplsShim{16, 0, 1});  // TTL 1: dies at the swap
  a.receive(std::move(p), 0);
  EXPECT_EQ(a.counters().ttl_expired.value(), 1u);

  auto p2 = topo.packet_factory().make();
  p2->push_label(net::MplsShim{99, 0, 64});  // unknown label
  a.receive(std::move(p2), 0);
  EXPECT_EQ(a.counters().label_miss.value(), 1u);
}

TEST(Router, ClassifierAndPolicerAtEdge) {
  net::Topology topo;
  auto& ce = topo.add_node<Router>("ce", Role::kCe);
  ce.add_local_prefix(ip::Prefix::must_parse("10.0.0.0/8"));

  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule rule;
  rule.dst_port = qos::PortRange::exactly(4000);
  rule.mark = qos::Phb::kAf11;
  classifier->add_rule(rule);
  ce.set_classifier(std::move(classifier));
  // CIR 1 kB/s, CBS 600 B, EBS 600 B: second packet yellow, third red.
  ce.add_policer(qos::Phb::kAf11, 1000.0, 600.0, 600.0);

  std::vector<std::uint8_t> dscps;
  ce.set_local_sink([&](const net::Packet& p, VpnId) {
    dscps.push_back(p.ip.dscp);
  });
  for (int i = 0; i < 3; ++i) {
    auto p = topo.packet_factory().make();
    p->ip.dst = ip::Ipv4Address::must_parse("10.0.0.1");
    p->l4.dst_port = 4000;
    p->payload_bytes = 472;  // 500 B on the wire
    ce.inject(std::move(p));
  }
  ASSERT_EQ(dscps.size(), 2u);  // red packet dropped at the edge
  EXPECT_EQ(dscps[0], qos::dscp_of(qos::Phb::kAf11));
  EXPECT_EQ(dscps[1], qos::dscp_of(qos::Phb::kAf12));  // yellow remarked
  EXPECT_EQ(ce.counters().policed.value(), 1u);
}

// --- Figure-level behaviour (paper Figs. 2-4) -------------------------------

TEST(Figure2, AnyToAnyWithinVpnAndIsolationAcross) {
  Figure2Scenario s = make_figure2_scenario(11);
  s.backbone->start_and_converge();

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  sink.bind(*s.v2_site2.ce);

  traffic::FlowSet flows(s.backbone->topo.scheduler(), &probe,
                         s.backbone->topo.seed());
  flows.add_flow(testutil::flow_between(flows, 1, *s.v1_site1.ce, "10.1.0.1",
                                        *s.v1_site2.ce, "10.2.0.1", 500e3,
                                        s.vpn1));
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  flows.add_flow(testutil::flow_between(flows, 2, *s.v2_site1.ce, "10.1.0.1",
                                        *s.v2_site2.ce, "10.2.0.1", 500e3,
                                        s.vpn2));
  sink.expect_flow(2, qos::Phb::kBe, s.vpn2);

  flows.run(sim::kSecond);
  s.backbone->topo.run_until(3 * sim::kSecond);

  EXPECT_GT(sink.delivered(), 0u);
  EXPECT_EQ(sink.leaks(), 0u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
  EXPECT_EQ(flows.packets_sent(), sink.delivered());
}

TEST(Figure3, CeRoutersNeedNoVpnState) {
  Figure2Scenario s = make_figure2_scenario(12);
  s.backbone->start_and_converge();
  // The paper's edge-simplicity claim: CEs carry no VRFs, no LFIB, no BGP
  // state — a default route is all they hold beyond their site prefix.
  for (Router* ce : s.backbone->ces()) {
    EXPECT_EQ(ce->vrf_count(), 0u);
    EXPECT_EQ(ce->lsr_state(), nullptr);
    EXPECT_LE(ce->fib().size(), 2u);  // site prefix + default
  }
  // PEs, by contrast, hold the VPN intelligence.
  EXPECT_GT(s.backbone->pe(0).vrf_count(), 0u);
}

TEST(Figure4, LabeledInCoreUnlabeledAtEdgesWithPhp) {
  Figure2Scenario s = make_figure2_scenario(13);
  s.backbone->start_and_converge();

  // Trace the label stack hop by hop (Fig. 4: labeled path inside the
  // backbone, unlabeled outside).
  std::map<ip::NodeId, std::size_t> labels_seen;
  s.backbone->topo.add_packet_tap(
      [&](ip::NodeId at, const net::Packet& p) {
        if (p.flow_id == 42) labels_seen[at] = p.labels.size();
      });

  auto p = s.backbone->topo.packet_factory().make();
  p->flow_id = 42;
  p->true_vpn_id = s.vpn1;
  p->ip.src = ip::Ipv4Address::must_parse("10.1.0.1");
  p->ip.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  p->payload_bytes = 100;
  int delivered = 0;
  s.v1_site2.ce->set_local_sink(
      [&](const net::Packet&, VpnId) { ++delivered; });
  s.v1_site1.ce->inject(std::move(p));
  s.backbone->topo.scheduler().run();

  ASSERT_EQ(delivered, 1);
  const ip::NodeId pe0 = s.backbone->pe(0).id();
  const ip::NodeId p0 = s.backbone->p(0).id();
  const ip::NodeId pe1 = s.backbone->pe(1).id();
  const ip::NodeId ce_dst = s.v1_site2.ce->id();
  // CE→PE0 unlabeled; PE0→P0 has [tunnel, vpn]; P0 pops (PHP) so PE1 sees
  // only the VPN label; PE1→CE unlabeled again.
  EXPECT_EQ(labels_seen.at(pe0), 0u);
  EXPECT_EQ(labels_seen.at(p0), 2u);
  EXPECT_EQ(labels_seen.at(pe1), 1u);
  EXPECT_EQ(labels_seen.at(ce_dst), 0u);
}

TEST(Router, CustomExpMapShowsInImposedLabels) {
  Figure2Scenario s = make_figure2_scenario(23);
  s.backbone->start_and_converge();
  // Non-default edge policy: EF rides EXP 7 instead of 5.
  qos::DscpExpMap custom;
  custom.set(qos::Phb::kEf, 7);
  s.backbone->pe(0).set_dscp_exp_map(custom);

  std::uint8_t seen_exp = 0xFF;
  s.backbone->topo.add_packet_tap(
      [&](ip::NodeId at, const net::Packet& p) {
        if (at == s.backbone->p(0).id() && p.has_labels()) {
          seen_exp = p.top_label().exp;
        }
      });
  auto p = s.backbone->topo.packet_factory().make();
  p->true_vpn_id = s.vpn1;
  p->ip.src = ip::Ipv4Address::must_parse("10.1.0.1");
  p->ip.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  p->ip.dscp = qos::dscp_of(qos::Phb::kEf);
  s.v1_site1.ce->inject(std::move(p));
  s.backbone->topo.scheduler().run();
  EXPECT_EQ(seen_exp, 7);
}

TEST(Diagnostics, TraceRouteShowsLabelJourney) {
  Figure2Scenario s = make_figure2_scenario(16);
  s.backbone->start_and_converge();
  const TraceResult trace = trace_route(
      s.backbone->topo, *s.v1_site1.ce,
      ip::Ipv4Address::must_parse("10.1.0.1"),
      ip::Ipv4Address::must_parse("10.2.0.1"));
  ASSERT_TRUE(trace.delivered);
  EXPECT_EQ(trace.delivered_vpn, s.vpn1);
  EXPECT_GT(trace.latency, 0);
  // CE0 → PE0 → P0 → PE1 → CE (5 observation points incl. ingress).
  ASSERT_EQ(trace.hops.size(), 5u);
  EXPECT_EQ(trace.hops[2].labels.size(), 2u);  // core: [tunnel, vpn]
  EXPECT_EQ(trace.hops[3].labels.size(), 1u);  // after PHP: [vpn]
  EXPECT_TRUE(trace.hops[4].labels.empty());
  const std::string text = trace.to_string();
  EXPECT_NE(text.find("delivered"), std::string::npos);
  EXPECT_NE(text.find("P0["), std::string::npos);
}

TEST(Diagnostics, TraceRouteReportsLostProbe) {
  Figure2Scenario s = make_figure2_scenario(17);
  s.backbone->start_and_converge();
  const TraceResult trace = trace_route(
      s.backbone->topo, *s.v1_site1.ce,
      ip::Ipv4Address::must_parse("10.1.0.1"),
      ip::Ipv4Address::must_parse("99.99.99.99"),  // no such destination
      0, 100 * sim::kMillisecond);
  EXPECT_FALSE(trace.delivered);
  EXPECT_NE(trace.to_string().find("LOST"), std::string::npos);
}

TEST(Diagnostics, DescribeTablesShowsOperationalState) {
  Figure2Scenario s = make_figure2_scenario(18);
  s.backbone->start_and_converge();
  const std::string pe = describe_tables(s.backbone->pe(0));
  EXPECT_NE(pe.find("vrf \"V1\""), std::string::npos);
  EXPECT_NE(pe.find("lfib"), std::string::npos);
  EXPECT_NE(pe.find("rd 65000:1"), std::string::npos);
  const std::string ce = describe_tables(*s.v1_site1.ce);
  EXPECT_NE(ce.find("global table"), std::string::npos);
  EXPECT_EQ(ce.find("vrf"), std::string::npos);  // CE has no VRFs
}

TEST(Service, StateAccountingAndMetrics) {
  Figure2Scenario s = make_figure2_scenario(14);
  s.backbone->start_and_converge();
  auto& svc = s.backbone->service;
  EXPECT_EQ(svc.vpn_count(), 2u);
  EXPECT_EQ(svc.site_count(s.vpn1), 2u);
  EXPECT_EQ(svc.total_vrf_count(), 4u);   // 2 VPNs × 2 PEs
  // Each VRF: its connected site + the imported remote site.
  EXPECT_EQ(svc.total_vrf_routes(), 8u);
  EXPECT_EQ(svc.total_bgp_loc_rib(), 8u);  // 4 routes × 2 PEs
  EXPECT_EQ(svc.rd_of(s.vpn1).to_string(), "65000:1");
  EXPECT_EQ(svc.name_of(s.vpn1), "V1");
}

TEST(Service, RemoveSiteWithdrawsReachability) {
  Figure2Scenario s = make_figure2_scenario(15);
  s.backbone->start_and_converge();
  auto& svc = s.backbone->service;
  Router& pe1 = s.backbone->pe(1);

  // PE0's V1 VRF currently has the remote 10.2/16 route.
  Vrf* vrf_at_pe0 = s.backbone->pe(0).vrf_by_vpn(s.vpn1);
  ASSERT_NE(vrf_at_pe0, nullptr);
  ASSERT_NE(vrf_at_pe0->table().lookup(
                ip::Ipv4Address::must_parse("10.2.0.1")),
            nullptr);

  svc.remove_site(s.vpn1, pe1, ip::Prefix::must_parse("10.2.0.0/16"));
  svc.converge();
  EXPECT_EQ(
      vrf_at_pe0->table().lookup(ip::Ipv4Address::must_parse("10.2.0.1")),
      nullptr);
  EXPECT_EQ(svc.site_count(s.vpn1), 1u);
}

TEST(Service, ExtranetImportCrossesVpns) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v1 = bb.service.create_vpn("corp");
  const VpnId v2 = bb.service.create_vpn("partner");
  // corp imports partner's exports (one-way extranet).
  bb.service.add_extranet_import(v1, v2);
  bb.add_site(v1, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.add_site(v2, 1, ip::Prefix::must_parse("192.168.0.0/16"));
  bb.start_and_converge();

  Vrf* corp = bb.pe(0).vrf_by_vpn(v1);
  ASSERT_NE(corp, nullptr);
  // The partner site is visible inside corp's VRF...
  EXPECT_NE(
      corp->table().lookup(ip::Ipv4Address::must_parse("192.168.1.1")),
      nullptr);
  // ...but not vice versa (one-way policy).
  Vrf* partner = bb.pe(1).vrf_by_vpn(v2);
  ASSERT_NE(partner, nullptr);
  EXPECT_EQ(partner->table().lookup(ip::Ipv4Address::must_parse("10.1.0.1")),
            nullptr);
}

TEST(Service, SiteJoinAfterStartPropagates) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("dyn");
  bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.start_and_converge();

  // Discovery (§4.1): a site joining later becomes known to all members.
  bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.service.converge();
  Vrf* at_pe0 = bb.pe(0).vrf_by_vpn(v);
  ASSERT_NE(at_pe0, nullptr);
  EXPECT_NE(at_pe0->table().lookup(ip::Ipv4Address::must_parse("10.2.0.1")),
            nullptr);
}

TEST(Service, RouteTargetChangeLeavesNoStaleVrfRoute) {
  // A key re-advertised with a route target one VRF no longer imports must
  // leave that VRF at once: a later withdraw only visits current importers.
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId red = bb.service.create_vpn("red");
  const VpnId blue = bb.service.create_vpn("blue");
  bb.add_site(red, 1, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.add_site(blue, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  const ip::Prefix prefix = ip::Prefix::must_parse("10.9.0.0/16");
  routing::VpnRoute route;
  route.rd = bb.service.rd_of(red);
  route.prefix = prefix;
  route.next_hop = bb.pe(0).loopback();
  route.next_hop_node = bb.pe(0).id();
  route.vpn_label = 4242;
  route.route_targets = {bb.service.rt_of(red)};
  bb.bgp.originate(bb.pe(0).id(), route);
  bb.service.converge();
  Vrf* red_vrf = bb.pe(1).vrf_by_vpn(red);
  Vrf* blue_vrf = bb.pe(1).vrf_by_vpn(blue);
  ASSERT_NE(red_vrf, nullptr);
  ASSERT_NE(blue_vrf, nullptr);
  ASSERT_NE(red_vrf->table().find(prefix), nullptr);
  EXPECT_EQ(blue_vrf->table().find(prefix), nullptr);

  route.route_targets = {bb.service.rt_of(blue)};
  bb.bgp.originate(bb.pe(0).id(), route);
  bb.service.converge();
  EXPECT_EQ(red_vrf->table().find(prefix), nullptr);  // no isolation leak
  ASSERT_NE(blue_vrf->table().find(prefix), nullptr);

  bb.bgp.withdraw(bb.pe(0).id(), route.rd, prefix);
  bb.service.converge();
  EXPECT_EQ(red_vrf->table().find(prefix), nullptr);
  EXPECT_EQ(blue_vrf->table().find(prefix), nullptr);
  // Connected site routes are never BGP's to remove.
  EXPECT_NE(red_vrf->table().find(ip::Prefix::must_parse("10.1.0.0/16")),
            nullptr);
}

TEST(Service, OwnOriginationBecomingBestDropsImportedCopy) {
  // PE2 first imports PE1's route for an external prefix, then originates
  // the same key at a higher local_pref. Its own route wins, so its VRF
  // must lose PE1's copy: no connected route hides it, unlike a site
  // prefix. Nothing is withdrawn, so the full-mesh withdraw path (which
  // takes its targets from the new best's sender) stays out of the test.
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 3;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("ext");
  for (std::size_t pe = 0; pe < 3; ++pe) {
    bb.add_site(v, pe,
                ip::Prefix(ip::Ipv4Address(10, std::uint8_t(pe + 1), 0, 0), 16));
  }
  const ip::Prefix prefix = ip::Prefix::must_parse("192.168.0.0/16");
  bb.service.originate_external(v, bb.pe(1), prefix);  // local_pref 100
  bb.start_and_converge();
  Vrf* at_pe2 = bb.pe(2).vrf_by_vpn(v);
  ASSERT_NE(at_pe2, nullptr);
  const ip::RouteEntry* imported = at_pe2->table().find(prefix);
  ASSERT_NE(imported, nullptr);
  EXPECT_EQ(imported->egress_pe, bb.pe(1).id());

  routing::VpnRoute own;
  own.rd = bb.service.rd_of(v);
  own.prefix = prefix;
  own.next_hop = bb.pe(2).loopback();
  own.next_hop_node = bb.pe(2).id();
  own.vpn_label = at_pe2->vpn_label();
  own.route_targets = {bb.service.rt_of(v)};
  own.local_pref = 200;
  bb.bgp.originate(bb.pe(2).id(), own);
  bb.service.converge();

  const routing::VpnRouteKey key{own.rd, prefix};
  for (std::size_t pe = 0; pe < 3; ++pe) {
    const std::optional<routing::VpnRoute> best =
        bb.bgp.best(bb.pe(pe).id(), key);
    ASSERT_TRUE(best.has_value()) << "PE" << pe;
    EXPECT_EQ(best->next_hop_node, bb.pe(2).id()) << "PE" << pe;
  }
  EXPECT_EQ(at_pe2->table().find(prefix), nullptr);  // no stale import
  for (std::size_t pe : {0, 1}) {
    const ip::RouteEntry* r = bb.pe(pe).vrf_by_vpn(v)->table().find(prefix);
    ASSERT_NE(r, nullptr) << "PE" << pe;
    EXPECT_EQ(r->egress_pe, bb.pe(2).id()) << "PE" << pe;
  }
}

TEST(Service, KeyInternedAfterConvergenceReachesEveryRibAndVrf) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 2;
  cfg.pe_count = 4;
  cfg.bgp_mode = routing::Bgp::Mode::kRouteReflector;
  cfg.route_reflector_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("late");
  for (std::size_t pe = 0; pe < 4; ++pe) {
    bb.add_site(v, pe,
                ip::Prefix(ip::Ipv4Address(10, std::uint8_t(pe + 1), 0, 0), 16));
  }
  bb.start_and_converge();
  const std::size_t interned = bb.bgp.nlri_count();

  // One key through a site joining after start, one through an external
  // origination: both are interned only now.
  bb.add_site(v, 2, ip::Prefix::must_parse("10.77.0.0/16"));
  bb.service.originate_external(v, bb.pe(3),
                                ip::Prefix::must_parse("192.168.0.0/16"));
  bb.service.converge();
  EXPECT_EQ(bb.bgp.nlri_count(), interned + 2);
  for (const auto& [prefix, origin] :
       {std::pair{ip::Prefix::must_parse("10.77.0.0/16"), std::size_t{2}},
        std::pair{ip::Prefix::must_parse("192.168.0.0/16"), std::size_t{3}}}) {
    const routing::VpnRouteKey key{bb.service.rd_of(v), prefix};
    for (ip::NodeId n = 0; n < bb.topo.node_count(); ++n) {
      const bool reflector = bb.bgp.is_reflector(n);
      const auto& speakers = bb.bgp.speakers();
      if (!reflector &&
          std::find(speakers.begin(), speakers.end(), n) == speakers.end()) {
        continue;
      }
      const std::optional<routing::VpnRoute> best = bb.bgp.best(n, key);
      ASSERT_TRUE(best.has_value()) << "node " << n;
      EXPECT_EQ(best->next_hop_node, bb.pe(origin).id()) << "node " << n;
    }
    for (std::size_t pe = 0; pe < 4; ++pe) {
      if (pe == origin) continue;
      const ip::RouteEntry* r =
          bb.pe(pe).vrf_by_vpn(v)->table().find(prefix);
      ASSERT_NE(r, nullptr) << "PE" << pe;
      EXPECT_EQ(r->egress_pe, bb.pe(origin).id()) << "PE" << pe;
    }
  }
}

TEST(MembershipDirectory, NotifiesMembersScopedPerVpn) {
  net::Topology topo(5);
  // Server + 4 PEs (plain nodes; the directory is control-plane only).
  std::vector<Router*> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(&topo.add_node<Router>("n" + std::to_string(i),
                                           Role::kPe));
  }
  routing::ControlPlane cp(topo);
  MembershipDirectory dir(cp, nodes[0]->id());

  struct Event {
    ip::NodeId at;
    VpnId vpn;
    ip::NodeId who;
    bool joined;
  };
  std::vector<Event> events;
  dir.on_notify([&](ip::NodeId at, VpnId vpn,
                    const MembershipDirectory::Attachment& who, bool joined) {
    events.push_back(Event{at, vpn, who.pe, joined});
  });

  dir.register_site(1, nodes[1]->id(), ip::Prefix::must_parse("10.1.0.0/16"));
  topo.scheduler().run();
  EXPECT_TRUE(events.empty());  // first member: nobody to notify
  EXPECT_EQ(dir.member_count(1), 1u);

  dir.register_site(1, nodes[2]->id(), ip::Prefix::must_parse("10.2.0.0/16"));
  dir.register_site(2, nodes[3]->id(), ip::Prefix::must_parse("10.1.0.0/16"));
  topo.scheduler().run();
  // VPN 1's join produced exactly two notifications (existing member and
  // newcomer replay); VPN 2's first member produced none — and crucially,
  // no event about VPN 1 ever reached the VPN-2-only PE.
  ASSERT_EQ(events.size(), 2u);
  for (const Event& e : events) {
    EXPECT_EQ(e.vpn, 1u);
    EXPECT_NE(e.at, nodes[3]->id());
    EXPECT_TRUE(e.joined);
  }
  EXPECT_EQ(dir.member_count(2), 1u);

  events.clear();
  dir.deregister_site(1, nodes[1]->id(),
                      ip::Prefix::must_parse("10.1.0.0/16"));
  topo.scheduler().run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].joined);
  EXPECT_EQ(events[0].at, nodes[2]->id());
  EXPECT_EQ(dir.member_count(1), 1u);
  EXPECT_GT(dir.notifications_sent(), 0u);
  EXPECT_EQ(dir.registrations(), 4u);
}

/// Minimal LSR chain for OAM: a — b — c with a TE LSP a→c.
struct OamFixture {
  net::Topology topo{7};
  routing::ControlPlane cp{topo};
  routing::Igp igp{cp};
  mpls::MplsDomain domain;
  mpls::RsvpTe rsvp{cp, igp, domain};
  Router* a;
  Router* b;
  Router* c;
  net::LinkId ab = net::kInvalidLink;
  net::LinkId bc = net::kInvalidLink;
  mpls::LspId lsp = 0;

  OamFixture() {
    a = &topo.add_node<Router>("a", Role::kP);
    b = &topo.add_node<Router>("b", Role::kP);
    c = &topo.add_node<Router>("c", Role::kP);
    for (Router* r : {a, b, c}) {
      igp.add_router(r->id());
      r->set_lsr_state(&domain.state_of(r->id()));
    }
    ab = topo.connect(a->id(), b->id());
    bc = topo.connect(b->id(), c->id());
    igp.start();
    topo.scheduler().run();
    mpls::TeLspConfig cfg;
    cfg.head = a->id();
    cfg.tail = c->id();
    cfg.bandwidth_bps = 1e6;
    lsp = rsvp.signal(cfg);
    topo.scheduler().run();
  }
};

TEST(LspOam, PingSucceedsOverHealthyLsp) {
  OamFixture f;
  ASSERT_EQ(f.rsvp.lsp(f.lsp).state, mpls::RsvpTe::LspState::kUp);
  LspOam oam(f.topo, f.cp, f.rsvp);
  bool got = false;
  bool ok = false;
  sim::SimTime rtt = 0;
  oam.ping(f.lsp, [&](bool o, sim::SimTime r) {
    got = true;
    ok = o;
    rtt = r;
  });
  f.topo.scheduler().run();
  ASSERT_TRUE(got);
  EXPECT_TRUE(ok);
  EXPECT_GT(rtt, 0);
  EXPECT_EQ(oam.probes_sent(), 1u);
  EXPECT_EQ(oam.replies_received(), 1u);
  EXPECT_EQ(oam.failures_detected(), 0u);
}

TEST(LspOam, PingTimesOutOnSilentDataPlaneBreak) {
  OamFixture f;
  LspOam oam(f.topo, f.cp, f.rsvp);
  // Break the forwarding path WITHOUT telling RSVP — the LSP still claims
  // to be up; only a data-plane probe can notice.
  f.topo.link(f.bc).set_up(false);
  ASSERT_EQ(f.rsvp.lsp(f.lsp).state, mpls::RsvpTe::LspState::kUp);
  bool got = false;
  bool ok = true;
  oam.ping(f.lsp, [&](bool o, sim::SimTime) {
    got = true;
    ok = o;
  });
  f.topo.scheduler().run();
  ASSERT_TRUE(got);
  EXPECT_FALSE(ok);
  EXPECT_EQ(oam.failures_detected(), 1u);
}

TEST(LspOam, MonitorDetectsSilentFailureOnce) {
  OamFixture f;
  LspOam oam(f.topo, f.cp, f.rsvp);
  int down_events = 0;
  oam.monitor(f.lsp, 50 * sim::kMillisecond, 3,
              [&](mpls::LspId) { ++down_events; });
  // Healthy for a while...
  f.topo.run_until(f.topo.scheduler().now() + 300 * sim::kMillisecond);
  EXPECT_EQ(down_events, 0);
  // ...then the silent break.
  f.topo.link(f.bc).set_up(false);
  f.topo.run_until(f.topo.scheduler().now() + 400 * sim::kMillisecond);
  EXPECT_EQ(down_events, 1);
  // Deactivated after the down event: no further callbacks, and stopping
  // again is harmless.
  oam.stop_monitoring(f.lsp);
  f.topo.run_until(f.topo.scheduler().now() + 400 * sim::kMillisecond);
  EXPECT_EQ(down_events, 1);
}

TEST(LspOam, PingOnUnsignaledLspFails) {
  OamFixture f;
  mpls::TeLspConfig cfg;
  cfg.head = f.a->id();
  cfg.tail = f.c->id();
  cfg.bandwidth_bps = 1e12;  // cannot be admitted
  const mpls::LspId dead = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  ASSERT_EQ(f.rsvp.lsp(dead).state, mpls::RsvpTe::LspState::kFailed);
  LspOam oam(f.topo, f.cp, f.rsvp);
  bool ok = true;
  oam.ping(dead, [&](bool o, sim::SimTime) { ok = o; });
  f.topo.scheduler().run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(oam.probes_sent(), 0u);  // nothing could even be imposed
}

TEST(InterAs, ConstructionValidatesAdjacency) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb1(cfg);
  backbone::MplsBackbone bb2(cfg);
  // PEs of two *different* topologies can never be adjacent — and within
  // one topology, two non-adjacent PEs must be rejected too.
  EXPECT_THROW(
      InterAsPeering(bb1.cp, bb1.service, bb1.pe(0), bb1.service, bb1.pe(1)),
      std::invalid_argument);
}

TEST(Service, BindVrfInterfaceRequiresAdjacency) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("x");
  EXPECT_THROW(bb.service.bind_vrf_interface(v, bb.pe(0), 9999),
               std::invalid_argument);
}

TEST(Service, OriginateExternalBeforeStartIsQueued) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("x");
  // Give PE1 a VRF so the import lands somewhere observable.
  auto site = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  (void)site;
  bb.service.originate_external(v, bb.pe(0),
                                ip::Prefix::must_parse("192.168.0.0/16"));
  bb.start_and_converge();
  Vrf* vrf = bb.pe(1).vrf_by_vpn(v);
  ASSERT_NE(vrf, nullptr);
  const ip::RouteEntry* r =
      vrf->table().lookup(ip::Ipv4Address::must_parse("192.168.1.1"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->egress_pe, bb.pe(0).id());
}

TEST(Overlay, UnreachableSitePairThrowsOnProvision) {
  net::Topology topo;
  routing::ControlPlane cp(topo);
  OverlayVpnService svc(topo, cp);
  auto& a = topo.add_node<Router>("a", Role::kCe);
  auto& b = topo.add_node<Router>("b", Role::kCe);  // no link at all
  const VpnId v = svc.create_vpn("V");
  svc.add_site(v, a, ip::Prefix::must_parse("10.1.0.0/16"));
  svc.add_site(v, b, ip::Prefix::must_parse("10.2.0.0/16"));
  EXPECT_THROW(svc.provision(), std::runtime_error);
}

TEST(Backbone, RandomBackboneDeterministicForSeed) {
  auto a = backbone::make_random_backbone(4, 3, 0.4, 123);
  auto b = backbone::make_random_backbone(4, 3, 0.4, 123);
  EXPECT_EQ(a->topo.link_count(), b->topo.link_count());
  EXPECT_EQ(a->topo.node_count(), b->topo.node_count());
  auto c = backbone::make_random_backbone(4, 3, 0.4, 124);
  EXPECT_EQ(c->topo.node_count(), a->topo.node_count());  // same shape params
}

TEST(Service, AddSiteValidatesAdjacency) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 1;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("x");
  auto& orphan_ce = bb.topo.add_node<Router>("orphan", Role::kCe);
  EXPECT_THROW(bb.service.add_site(v, bb.pe(0), orphan_ce,
                                   ip::Prefix::must_parse("10.1.0.0/16")),
               std::invalid_argument);
}

// --- Scoped, withdraw-correct route distribution ---------------------------

/// A 1P backbone of `pe_count` PEs in a full iBGP mesh, or as clients of
/// `rr_count` route reflectors.
std::unique_ptr<backbone::MplsBackbone> bgp_backbone(std::size_t pe_count,
                                                     std::size_t rr_count) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = pe_count;
  if (rr_count > 0) {
    cfg.bgp_mode = routing::Bgp::Mode::kRouteReflector;
    cfg.route_reflector_count = rr_count;
  }
  return std::make_unique<backbone::MplsBackbone>(cfg);
}

std::vector<ip::NodeId> reflectors_of(const backbone::MplsBackbone& bb) {
  std::vector<ip::NodeId> out;
  for (ip::NodeId n = 0; n < bb.topo.node_count(); ++n) {
    if (bb.bgp.is_reflector(n)) out.push_back(n);
  }
  return out;
}

/// The VPN route `pe` originates for `prefix` in `vpn`'s VRF there.
routing::VpnRoute vrf_route(backbone::MplsBackbone& bb, VpnId vpn,
                            vpn::Router& pe, const ip::Prefix& prefix,
                            std::uint32_t local_pref = 100) {
  routing::VpnRoute r;
  r.rd = bb.service.rd_of(vpn);
  r.prefix = prefix;
  r.next_hop = pe.loopback();
  r.next_hop_node = pe.id();
  r.vpn_label = pe.vrf_by_vpn(vpn)->vpn_label();
  r.route_targets.push_back(bb.service.rt_of(vpn));
  r.local_pref = local_pref;
  return r;
}

/// Seeded random originations, withdraws, route-target changes, VRF
/// additions, extranet grants and speaker failures. After every drain
/// each VRF must equal the import computed directly from the live
/// originations, no speaker may hold a route its originator no longer
/// offers, and no PE may hold an offer whose RTs miss its import set.
class DistributionOracle {
 public:
  DistributionOracle(std::size_t rr_count, std::uint64_t seed)
      : bb_(bgp_backbone(4, rr_count)), rng_(seed) {
    for (const char* name : {"A", "B", "C"}) {
      vpns_.push_back(bb_->service.create_vpn(name));
    }
    // Each PE starts with one VRF and one site route.
    for (std::size_t pe = 0; pe < 4; ++pe) {
      add_vrf(pe, pe % vpns_.size(), 0);
    }
    bb_->start_and_converge();
  }

  void step() {
    const int op = pick(20);
    if (op < 6) {
      originate();
    } else if (op < 10) {
      withdraw();
    } else if (op < 13) {
      change_targets();
    } else if (op < 16) {
      add_vrf(pick(4), pick(vpns_.size()), pick(kPrefixes));
    } else if (op < 19) {
      const std::size_t importer = pick(vpns_.size());
      const std::size_t exported = pick(vpns_.size());
      if (importer != exported) {
        bb_->service.add_extranet_import(vpns_[importer], vpns_[exported]);
      }
    } else {
      fail_one();
    }
    bb_->topo.scheduler().run();
  }

  void check(const std::string& where) const {
    const routing::Bgp& bgp = bb_->bgp;
    std::vector<ip::NodeId> speakers = bgp.speakers();
    for (ip::NodeId rr : reflectors_of(*bb_)) speakers.push_back(rr);
    for (ip::NodeId s : speakers) {
      if (failed_.count(s) != 0) continue;
      const bool reflector = bgp.is_reflector(s);
      const std::vector<routing::RouteTarget> wants =
          reflector ? std::vector<routing::RouteTarget>{} : imports_at(s);
      std::set<routing::VpnRouteKey> held;
      for (const routing::VpnRoute& r : bgp.loc_rib(s)) {
        const routing::VpnRouteKey key{r.rd, r.prefix};
        held.insert(key);
        const std::optional<routing::VpnRoute> ref = reference_best(key);
        ASSERT_TRUE(ref.has_value())
            << where << ": speaker " << s << " holds a withdrawn route "
            << r.prefix.to_string() << " from " << r.originator;
        EXPECT_TRUE(same(r, *ref)) << where << ": speaker " << s << " key "
                                   << r.prefix.to_string();
      }
      for (const auto& [key, by_pe] : live_) {
        const std::optional<routing::VpnRoute> ref = reference_best(key);
        if (!ref) continue;
        const bool want = reflector || meets(ref->route_targets, wants);
        EXPECT_EQ(held.count(key) != 0, want)
            << where << ": speaker " << s << " key " << key.second.to_string();
      }
      if (reflector) continue;
      for (const auto& [sender, r] : bgp.adj_rib_in(s)) {
        if (sender == ip::kInvalidNode) continue;
        EXPECT_TRUE(meets(r.route_targets, wants))
            << where << ": PE " << s << " holds an unwanted offer "
            << r.prefix.to_string() << " from " << sender;
      }
    }
    for (vpn::Router* pe : bb_->pes()) {
      if (failed_.count(pe->id()) != 0) continue;
      for (const Vrf* vrf : pe->vrfs()) {
        std::vector<std::tuple<ip::Prefix, std::uint32_t, ip::NodeId>> got;
        for (const ip::RouteEntry& e : vrf->table().entries()) {
          if (e.source != ip::RouteSource::kVpn) continue;
          got.emplace_back(e.prefix, e.vpn_label, e.egress_pe);
        }
        std::vector<std::tuple<ip::Prefix, std::uint32_t, ip::NodeId>> want;
        for (const auto& [key, by_pe] : live_) {
          const std::optional<routing::VpnRoute> ref = reference_best(key);
          if (!ref || ref->originator == pe->id() || !vrf->imports(*ref)) {
            continue;
          }
          want.emplace_back(ref->prefix, ref->vpn_label, ref->originator);
        }
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << where << ": " << pe->name() << " VRF "
                             << vrf->config().name;
      }
    }
  }

 private:
  static constexpr std::size_t kPrefixes = 3;

  std::size_t pick(std::size_t n) { return rng_() % n; }

  ip::Prefix prefix(std::size_t vpn, std::size_t index) const {
    return ip::Prefix(ip::Ipv4Address(10, std::uint8_t(vpn + 1),
                                      std::uint8_t(index), 0),
                      24);
  }

  /// Give PE `pe` a VRF for VPN `vpn` (the service creates it on first
  /// origination) and originate `index`'s prefix there.
  void add_vrf(std::size_t pe, std::size_t vpn, std::size_t index) {
    vpn::Router& router = bb_->pe(pe);
    if (failed_.count(router.id()) != 0) return;
    const ip::Prefix p = prefix(vpn, index);
    bb_->service.originate_external(vpns_[vpn], router, p);
    live_[{bb_->service.rd_of(vpns_[vpn]), p}][router.id()] =
        vrf_route(*bb_, vpns_[vpn], router, p);
  }

  void originate() {
    vpn::Router& router = bb_->pe(pick(4));
    if (failed_.count(router.id()) != 0 || router.vrf_count() == 0) return;
    const auto vrfs = router.vrfs();
    const VpnId vpn = vrfs[pick(vrfs.size())]->vpn_id();
    const std::size_t vpn_index =
        std::find(vpns_.begin(), vpns_.end(), vpn) - vpns_.begin();
    routing::VpnRoute r =
        vrf_route(*bb_, vpn, router, prefix(vpn_index, pick(kPrefixes)),
                  pick(2) == 0 ? 100 : 200);
    if (pick(4) == 0) {
      r.route_targets.push_back(bb_->service.rt_of(vpns_[pick(vpns_.size())]));
    }
    bb_->bgp.originate(router.id(), r);
    live_[{r.rd, r.prefix}][router.id()] = r;
  }

  /// A random live origination as (key, originator), if any.
  std::optional<std::pair<routing::VpnRouteKey, ip::NodeId>> any_live() {
    std::vector<std::pair<routing::VpnRouteKey, ip::NodeId>> all;
    for (const auto& [key, by_pe] : live_) {
      for (const auto& [pe, r] : by_pe) all.emplace_back(key, pe);
    }
    if (all.empty()) return std::nullopt;
    return all[pick(all.size())];
  }

  void withdraw() {
    const auto o = any_live();
    if (!o) return;
    bb_->bgp.withdraw(o->second, o->first.first, o->first.second);
    live_[o->first].erase(o->second);
  }

  void change_targets() {
    const auto o = any_live();
    if (!o) return;
    routing::VpnRoute& r = live_[o->first][o->second];
    if (r.route_targets.size() > 1) {
      r.route_targets.resize(1);
    } else {
      r.route_targets.push_back(bb_->service.rt_of(vpns_[pick(vpns_.size())]));
    }
    bb_->bgp.originate(o->second, r);
  }

  void fail_one() {
    if (!failed_.empty()) return;  // one failure per run
    const std::vector<ip::NodeId> rrs = reflectors_of(*bb_);
    ip::NodeId victim;
    if (!rrs.empty() && pick(2) == 0) {
      victim = rrs[0];
      bb_->bgp.fail_speaker(victim);
    } else {
      vpn::Router& pe = bb_->pe(pick(4));
      victim = pe.id();
      bb_->service.fail_pe(pe);
      for (auto& [key, by_pe] : live_) by_pe.erase(victim);
    }
    failed_.insert(victim);
  }

  std::vector<routing::RouteTarget> imports_at(ip::NodeId pe) const {
    std::vector<routing::RouteTarget> out;
    const auto& pes = bb_->pes();
    const vpn::Router& router = **std::find_if(
        pes.begin(), pes.end(), [pe](const Router* r) { return r->id() == pe; });
    for (const Vrf* vrf : router.vrfs()) {
      const auto& rts = vrf->config().import_targets;
      out.insert(out.end(), rts.begin(), rts.end());
    }
    return out;
  }

  static bool meets(const std::vector<routing::RouteTarget>& rts,
                    const std::vector<routing::RouteTarget>& wants) {
    return std::any_of(rts.begin(), rts.end(), [&](const auto& rt) {
      return std::find(wants.begin(), wants.end(), rt) != wants.end();
    });
  }

  static bool same(const routing::VpnRoute& a, const routing::VpnRoute& b) {
    return a.originator == b.originator && a.vpn_label == b.vpn_label &&
           a.local_pref == b.local_pref && a.next_hop == b.next_hop &&
           a.route_targets == b.route_targets;
  }

  /// The best live origination of `key`: highest local_pref, then lowest
  /// originator.
  std::optional<routing::VpnRoute> reference_best(
      const routing::VpnRouteKey& key) const {
    const auto it = live_.find(key);
    if (it == live_.end()) return std::nullopt;
    std::optional<routing::VpnRoute> best;
    for (const auto& [pe, r] : it->second) {
      routing::VpnRoute c = r;
      c.originator = pe;
      if (!best || c.local_pref > best->local_pref ||
          (c.local_pref == best->local_pref && c.originator < best->originator)) {
        best = c;
      }
    }
    return best;
  }

  std::unique_ptr<backbone::MplsBackbone> bb_;
  std::mt19937_64 rng_;
  std::vector<VpnId> vpns_;
  /// Live originations: key -> originating PE -> route.
  std::map<routing::VpnRouteKey, std::map<ip::NodeId, routing::VpnRoute>>
      live_;
  std::set<ip::NodeId> failed_;
};

TEST(Distribution, RandomSequencesMatchTheReferenceImport) {
  for (const std::size_t rrs : {std::size_t{0}, std::size_t{2}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
      DistributionOracle oracle(rrs, seed);
      const std::string run = (rrs == 0 ? "mesh" : "2rr") + std::string(" seed ") +
                              std::to_string(seed);
      oracle.check(run + " boot");
      for (int step = 0; step < 60; ++step) {
        oracle.step();
        oracle.check(run + " step " + std::to_string(step));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(Distribution, FullMeshPeWithdrawsItsOwnRouteWhenAPeersWins) {
  // 1P/3PE mesh: PE1 and PE2 originate one key, PE2 at higher preference.
  // PE1's best moves to PE2's route, so PE1 must withdraw its own; after
  // both withdraw, no speaker may keep either copy.
  auto bb = bgp_backbone(3, 0);
  const VpnId v = bb->service.create_vpn("A");
  for (std::size_t pe = 0; pe < 3; ++pe) {
    bb->add_site(v, pe, ip::Prefix(ip::Ipv4Address(10, 0, std::uint8_t(pe), 0), 24));
  }
  bb->start_and_converge();
  const ip::Prefix p = ip::Prefix::must_parse("10.9.0.0/16");
  const routing::VpnRouteKey key{bb->service.rd_of(v), p};
  bb->bgp.originate(bb->pe(1).id(), vrf_route(*bb, v, bb->pe(1), p, 100));
  bb->bgp.originate(bb->pe(2).id(), vrf_route(*bb, v, bb->pe(2), p, 200));
  bb->topo.scheduler().run();
  for (std::size_t pe = 0; pe < 3; ++pe) {
    ASSERT_TRUE(bb->bgp.best(bb->pe(pe).id(), key).has_value());
    EXPECT_EQ(bb->bgp.best(bb->pe(pe).id(), key)->originator, bb->pe(2).id());
  }
  bb->bgp.withdraw(bb->pe(2).id(), key.first, p);
  bb->topo.scheduler().run();
  for (std::size_t pe = 0; pe < 3; ++pe) {
    ASSERT_TRUE(bb->bgp.best(bb->pe(pe).id(), key).has_value());
    EXPECT_EQ(bb->bgp.best(bb->pe(pe).id(), key)->originator, bb->pe(1).id())
        << "PE" << pe;
  }
  bb->bgp.withdraw(bb->pe(1).id(), key.first, p);
  bb->topo.scheduler().run();
  for (std::size_t pe = 0; pe < 3; ++pe) {
    EXPECT_FALSE(bb->bgp.best(bb->pe(pe).id(), key).has_value()) << "PE" << pe;
    EXPECT_EQ(bb->pe(pe).vrf_by_vpn(v)->table().find(p), nullptr) << "PE" << pe;
  }
}

TEST(Distribution, TwoReflectorsDropAWithdrawnOrFailedPesRoutes) {
  // 4 PEs, 2 RRs: each RR also holds the other's reflected copy. When the
  // originator withdraws (or fails), each RR's best moves to that copy,
  // which it must not reflect back; both copies die and every client
  // loses the route.
  for (const bool fail : {false, true}) {
    auto bb = bgp_backbone(4, 2);
    const VpnId v = bb->service.create_vpn("A");
    for (std::size_t pe = 0; pe < 4; ++pe) {
      bb->add_site(v, pe, ip::Prefix(ip::Ipv4Address(10, 0, std::uint8_t(pe), 0), 24));
    }
    bb->start_and_converge();
    const ip::Prefix p = ip::Prefix(ip::Ipv4Address(10, 0, 0, 0), 24);
    const routing::VpnRouteKey key{bb->service.rd_of(v), p};
    for (ip::NodeId rr : reflectors_of(*bb)) {
      ASSERT_TRUE(bb->bgp.best(rr, key).has_value());
    }
    if (fail) {
      bb->service.fail_pe(bb->pe(0));
    } else {
      bb->service.remove_site(v, bb->pe(0), p);
    }
    bb->topo.scheduler().run();
    for (ip::NodeId rr : reflectors_of(*bb)) {
      EXPECT_FALSE(bb->bgp.best(rr, key).has_value()) << fail << " RR " << rr;
    }
    for (std::size_t pe = 1; pe < 4; ++pe) {
      EXPECT_FALSE(bb->bgp.best(bb->pe(pe).id(), key).has_value())
          << fail << " PE" << pe;
      for (const ip::RouteEntry& e : bb->pe(pe).vrf_by_vpn(v)->table().entries()) {
        EXPECT_NE(e.egress_pe, bb->pe(0).id()) << fail << " PE" << pe;
      }
    }
  }
}

TEST(Distribution, ReflectorsReofferTheirCopyWhenTheDirectRouteReturns) {
  // PE0 withdraws a route and re-originates it 1 ms later, inside the
  // session delay. Each reflector's best falls back to the other's copy
  // (withdrawing its own copy from that reflector), then returns to
  // PE0's direct route with identical attributes: that sender move
  // reaches the other reflector again, so each ends holding both offers.
  auto bb = bgp_backbone(4, 2);
  const VpnId v = bb->service.create_vpn("A");
  for (std::size_t pe = 0; pe < 4; ++pe) {
    bb->add_site(v, pe, ip::Prefix(ip::Ipv4Address(10, 0, std::uint8_t(pe), 0), 24));
  }
  bb->start_and_converge();
  const ip::Prefix p = ip::Prefix::must_parse("10.9.0.0/16");
  const routing::VpnRoute r = vrf_route(*bb, v, bb->pe(0), p);
  auto offers_at = [&](ip::NodeId n) {
    std::size_t count = 0;
    for (const auto& [sender, route] : bb->bgp.adj_rib_in(n)) {
      if (route.prefix == p) ++count;
    }
    return count;
  };
  bb->bgp.originate(bb->pe(0).id(), r);
  bb->topo.scheduler().run();
  for (ip::NodeId rr : reflectors_of(*bb)) EXPECT_EQ(offers_at(rr), 2u);
  bb->bgp.withdraw(bb->pe(0).id(), r.rd, p);
  bb->topo.run_until(bb->topo.scheduler().now() + sim::kMillisecond);
  bb->bgp.originate(bb->pe(0).id(), r);
  bb->topo.scheduler().run();
  for (ip::NodeId rr : reflectors_of(*bb)) {
    EXPECT_EQ(offers_at(rr), 2u) << "RR " << rr;
  }
  for (std::size_t pe = 1; pe < 4; ++pe) {
    EXPECT_EQ(offers_at(bb->pe(pe).id()), 2u) << "PE" << pe;
  }
}

TEST(Membership, PeWithoutAVrfHoldsNoStateForThatVpn) {
  for (const std::size_t rrs : {std::size_t{0}, std::size_t{2}}) {
    auto bb = bgp_backbone(4, rrs);
    const VpnId a = bb->service.create_vpn("A");
    const VpnId b = bb->service.create_vpn("B");
    bb->add_site(a, 0, ip::Prefix::must_parse("10.1.0.0/16"));
    bb->add_site(a, 1, ip::Prefix::must_parse("10.2.0.0/16"));
    bb->add_site(b, 2, ip::Prefix::must_parse("10.1.0.0/16"));
    bb->add_site(b, 3, ip::Prefix::must_parse("10.2.0.0/16"));
    bb->start_and_converge();
    const routing::RouteDistinguisher rd_b = bb->service.rd_of(b);
    const routing::NlriId b_key =
        bb->bgp.nlri_id({rd_b, ip::Prefix::must_parse("10.2.0.0/16")});
    ASSERT_NE(b_key, routing::kNoNlri);
    for (std::size_t pe : {0u, 1u}) {
      const ip::NodeId n = bb->pe(pe).id();
      for (const auto& [sender, r] : bb->bgp.adj_rib_in(n)) {
        EXPECT_NE(r.rd, rd_b) << rrs << " PE" << pe;
      }
      for (const routing::VpnRoute& r : bb->bgp.loc_rib(n)) {
        EXPECT_NE(r.rd, rd_b) << rrs << " PE" << pe;
      }
      EXPECT_EQ(bb->bgp.row_of(n, b_key), routing::AdjRibIn::kNil);
      EXPECT_EQ(bb->bgp.loc_rib_size(n), 2u);  // its VPN's two routes
    }
    // Reflectors hold everything.
    for (ip::NodeId rr : reflectors_of(*bb)) {
      EXPECT_EQ(bb->bgp.loc_rib_size(rr), 4u);
    }
  }
}

TEST(Membership, VrfAddedAfterConvergeReceivesItsVpnsRoutes) {
  for (const std::size_t rrs : {std::size_t{0}, std::size_t{2}}) {
    auto bb = bgp_backbone(4, rrs);
    const VpnId a = bb->service.create_vpn("A");
    const VpnId b = bb->service.create_vpn("B");
    bb->add_site(a, 0, ip::Prefix::must_parse("10.1.0.0/16"));
    bb->add_site(a, 1, ip::Prefix::must_parse("10.2.0.0/16"));
    bb->add_site(b, 2, ip::Prefix::must_parse("10.1.0.0/16"));
    bb->start_and_converge();
    const std::uint64_t rtc = bb->cp.message_count("bgp.rtc");
    // PE3 has no VRF at all, PE2 none for A: both gain one after converge.
    bb->add_site(a, 3, ip::Prefix::must_parse("10.3.0.0/16"));
    bb->add_site(a, 2, ip::Prefix::must_parse("10.4.0.0/16"));
    bb->topo.scheduler().run();
    EXPECT_EQ(bb->cp.message_count("bgp.rtc"), rtc + 2 * (rrs == 0 ? 3 : rrs))
        << rrs;
    for (std::size_t pe = 0; pe < 4; ++pe) {
      const Vrf* vrf = bb->pe(pe).vrf_by_vpn(a);
      ASSERT_NE(vrf, nullptr);
      EXPECT_EQ(vrf->table().size(), 4u) << rrs << " PE" << pe;
      for (const char* dst : {"10.1.0.1", "10.2.0.1", "10.3.0.1", "10.4.0.1"}) {
        EXPECT_NE(vrf->table().lookup(ip::Ipv4Address::must_parse(dst)), nullptr)
            << rrs << " PE" << pe << " " << dst;
      }
    }
    // PE2's VRF for B still holds only B's route.
    EXPECT_EQ(bb->pe(2).vrf_by_vpn(b)->table().size(), 1u);
  }
}

TEST(Membership, ExtranetImportReceivesTheExportedVpnsRoutes) {
  for (const std::size_t rrs : {std::size_t{0}, std::size_t{2}}) {
    auto bb = bgp_backbone(3, rrs);
    const VpnId hub = bb->service.create_vpn("hub");
    const VpnId spoke = bb->service.create_vpn("spoke");
    const VpnId late = bb->service.create_vpn("late");
    bb->service.add_extranet_import(hub, spoke);
    bb->add_site(hub, 0, ip::Prefix::must_parse("10.1.0.0/16"));
    bb->add_site(spoke, 1, ip::Prefix::must_parse("10.2.0.0/16"));
    bb->start_and_converge();
    const Vrf* vrf = bb->pe(0).vrf_by_vpn(hub);
    const ip::RouteEntry* e =
        vrf->table().lookup(ip::Ipv4Address::must_parse("10.2.0.1"));
    ASSERT_NE(e, nullptr) << rrs;
    EXPECT_EQ(e->egress_pe, bb->pe(1).id());
    // A grant made after converge takes effect for a VRF created later,
    // on a PE that held nothing of the exported VPN before.
    bb->service.add_extranet_import(late, spoke);
    bb->add_site(late, 2, ip::Prefix::must_parse("10.3.0.0/16"));
    bb->topo.scheduler().run();
    EXPECT_NE(bb->pe(2).vrf_by_vpn(late)->table().lookup(
                  ip::Ipv4Address::must_parse("10.2.0.1")),
              nullptr)
        << rrs;
  }
}

TEST(Membership, MembershipMessagesHaveTheirOwnType) {
  auto bb = bgp_backbone(4, 2);
  const VpnId a = bb->service.create_vpn("A");
  const VpnId b = bb->service.create_vpn("B");
  bb->service.add_extranet_import(a, b);
  bb->add_site(a, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb->add_site(b, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb->add_site(b, 2, ip::Prefix::must_parse("10.3.0.0/16"));
  bb->start_and_converge();
  // PEs 0-2 declare to both reflectors as the sessions come up; PE3 has no
  // VRF and declares nothing. PE0 imports two RTs, the others one:
  // 19 B header + 13 B per RT.
  EXPECT_EQ(bb->cp.message_count("bgp.rtc"), 6u);
  EXPECT_EQ(bb->cp.byte_count("bgp.rtc"), 2 * (19 + 26) + 4 * (19 + 13));
  EXPECT_EQ(bb->bgp.loc_rib_size(bb->pe(3).id()), 0u);
  EXPECT_EQ(bb->bgp.adj_rib_in_size(bb->pe(3).id()), 0u);
}

}  // namespace
}  // namespace mvpn::vpn
