// Traffic-engineered LSP failover (paper §3.1: avoid "congested,
// constrained or disabled links").
//
// A VPN's traffic is pinned to a bandwidth-reserved RSVP-TE LSP across the
// diamond backbone. One second into the run the LSP's link fails; the IGP
// refloods, the head end recomputes CSPF excluding the dead link and
// re-signals, and traffic continues over the detour. The program prints a
// timeline and the before/after paths.

#include <cstdio>

#include "backbone/fixtures.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

using namespace mvpn;

namespace {

std::string path_names(const backbone::MplsBackbone& bb,
                       const std::vector<ip::NodeId>& path) {
  std::string out;
  for (ip::NodeId n : path) {
    if (!out.empty()) out += " -> ";
    out += bb.topo.node(n).name();
  }
  return out;
}

}  // namespace

int main() {
  backbone::DiamondScenario d = backbone::make_diamond_scenario(10e6, 99);
  backbone::MplsBackbone& bb = *d.backbone;
  const vpn::VpnId v = bb.service.create_vpn("finance");
  auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  mpls::TeLspConfig lsp_cfg;
  lsp_cfg.head = bb.pe(0).id();
  lsp_cfg.tail = bb.pe(1).id();
  lsp_cfg.bandwidth_bps = 3e6;
  const mpls::LspId lsp = bb.rsvp.signal(lsp_cfg);
  bb.topo.scheduler().run();
  bb.pe(0).bind_lsp(bb.pe(1).id(), lsp, v);

  std::printf("[%7.1f ms] LSP up: %s (3 Mb/s reserved)\n",
              sim::to_seconds(bb.topo.scheduler().now()) * 1e3,
              path_names(bb, bb.rsvp.lsp(lsp).path).c_str());

  bb.rsvp.on_lsp_up([&](mpls::LspId id) {
    std::printf("[%7.1f ms] LSP re-signaled: %s (reroute #%u)\n",
                sim::to_seconds(bb.topo.scheduler().now()) * 1e3,
                path_names(bb, bb.rsvp.lsp(id).path).c_str(),
                bb.rsvp.lsp(id).reroutes);
  });

  qos::SlaProbe probe("finance");
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_b.ce);
  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  traffic::FlowSet::FlowDef f;
  f.flow_id = 1;
  f.from_site =
      flows.add_site(*site_a.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  f.to_site =
      flows.add_site(*site_b.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  f.rate_bps = 2e6;
  f.vpn = v;
  f.phb = qos::Phb::kAf21;
  flows.add_flow(f);
  sink.expect_flow(1, qos::Phb::kAf21, v);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  flows.run(t0 + 4 * sim::kSecond);

  bb.topo.scheduler().schedule_at(t0 + sim::kSecond, [&] {
    std::printf("[%7.1f ms] *** link P0-P1 fails ***\n",
                sim::to_seconds(bb.topo.scheduler().now()) * 1e3);
    bb.topo.link(d.hot_link).set_up(false);
    bb.igp.notify_link_change(d.hot_link);
    bb.rsvp.notify_link_failure(d.hot_link);
  });

  bb.topo.run_until(t0 + 6 * sim::kSecond);

  const auto& report = probe.report(qos::Phb::kAf21);
  std::printf("\n%s", probe.to_table(4.0).render().c_str());
  std::printf(
      "\nsent=%llu delivered=%llu (loss %.2f%% — only packets in flight "
      "during the %u ms outage)\n",
      static_cast<unsigned long long>(report.sent_packets),
      static_cast<unsigned long long>(report.delivered_packets),
      100.0 * report.loss_fraction(),
      30 /* SPF delay dominates the reconvergence */);
  return bb.rsvp.lsp(lsp).state == mpls::RsvpTe::LspState::kUp ? 0 : 1;
}
