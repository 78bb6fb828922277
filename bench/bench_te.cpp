// Experiment E4 — paper §3.1 / §5 (traffic engineering with explicit LSPs).
//
// Claim under test: "Users can also control QoS and general traffic flow
// more precisely to avoid congested, constrained or disabled links" —
// destination-based IGP routing piles flows onto the shortest path, while
// CSPF-placed TE LSPs spread them across the network subject to bandwidth
// reservations.
//
// Setup: the diamond backbone (PE0—P0—P1—PE1 short path, P0—P2—P1 detour).
// Two aggregates PE0→PE1 of 6 Mb/s each over 10 Mb/s links. Under IGP
// routing both share the hot P0—P1 link (12 Mb/s offered on 10 Mb/s).
// Under TE, two 6 Mb/s LSPs are signaled: admission control forces the
// second onto the detour.

#include <cstdio>
#include <memory>

#include "backbone/fixtures.hpp"
#include "stats/table.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

namespace {

using namespace mvpn;

struct AggregateResult {
  double loss_a = 0, loss_b = 0;
  double p99_a_ms = 0, p99_b_ms = 0;
  double goodput_a = 0, goodput_b = 0;
  double hot_util = 0, detour_util = 0;
};

AggregateResult run(bool use_te, std::uint64_t seed) {
  backbone::DiamondScenario d = backbone::make_diamond_scenario(10e6, seed);
  backbone::MplsBackbone& bb = *d.backbone;
  const vpn::VpnId va = bb.service.create_vpn("A");
  const vpn::VpnId vb = bb.service.create_vpn("B");
  auto a_src = bb.add_site(va, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto a_dst = bb.add_site(va, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  auto b_src = bb.add_site(vb, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto b_dst = bb.add_site(vb, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  mpls::LspId lsp_a = 0;
  mpls::LspId lsp_b = 0;
  if (use_te) {
    mpls::TeLspConfig cfg;
    cfg.head = bb.pe(0).id();
    cfg.tail = bb.pe(1).id();
    cfg.bandwidth_bps = 6e6;
    lsp_a = bb.rsvp.signal(cfg);
    bb.topo.scheduler().run();
    lsp_b = bb.rsvp.signal(cfg);  // second 6 Mb/s cannot fit on the hot link
    bb.topo.scheduler().run();
    // Per-VRF TE pinning: VPN A rides the first LSP (short path), VPN B the
    // second (detour placed by CSPF admission control).
    bb.pe(0).bind_lsp(bb.pe(1).id(), lsp_a, va);
    bb.pe(0).bind_lsp(bb.pe(1).id(), lsp_b, vb);
  }

  qos::SlaProbe probe(use_te ? "te" : "igp");
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*a_dst.ce);
  sink.bind(*b_dst.ce);

  // Poisson rather than CBR so the two aggregates interleave honestly on
  // the shared FIFO instead of phase-locking.
  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  traffic::FlowSet::FlowDef fa;
  fa.flow_id = 1;
  fa.from_site =
      flows.add_site(*a_src.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  fa.to_site =
      flows.add_site(*a_dst.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  fa.kind = traffic::FlowSet::Kind::kPoisson;
  fa.rate_bps = 6e6;
  fa.vpn = va;
  fa.phb = qos::Phb::kAf21;
  fa.payload_bytes = 972;
  traffic::FlowSet::FlowDef fb = fa;
  fb.flow_id = 2;
  fb.from_site =
      flows.add_site(*b_src.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  fb.to_site =
      flows.add_site(*b_dst.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  fb.vpn = vb;
  fb.phb = qos::Phb::kAf11;
  flows.add_flow(fa);
  flows.add_flow(fb);
  sink.expect_flow(1, qos::Phb::kAf21, va);
  sink.expect_flow(2, qos::Phb::kAf11, vb);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  const double duration_s = 4.0;
  (void)lsp_a;
  (void)lsp_b;

  flows.run(t0 + sim::from_seconds(duration_s));
  bb.topo.run_until(t0 + sim::from_seconds(duration_s + 2.0));

  AggregateResult r;
  const auto& ra = probe.report(qos::Phb::kAf21);
  const auto& rb = probe.report(qos::Phb::kAf11);
  r.loss_a = ra.loss_fraction();
  r.loss_b = rb.loss_fraction();
  r.p99_a_ms = ra.latency_s.percentile(99) * 1e3;
  r.p99_b_ms = rb.latency_s.percentile(99) * 1e3;
  r.goodput_a = ra.goodput_bps(duration_s) / 1e6;
  r.goodput_b = rb.goodput_bps(duration_s) / 1e6;
  const sim::SimTime elapsed = bb.topo.scheduler().now() - t0;
  r.hot_util =
      bb.topo.link(d.hot_link).utilization_from(bb.p(0).id(), elapsed);
  // Detour: P0→P2 link is link index 2 (see make_diamond_scenario wiring).
  r.detour_util = bb.topo.link(2).utilization_from(bb.p(0).id(), elapsed);
  return r;
}

}  // namespace

int main() {
  std::printf(
      "E4 — traffic engineering: IGP shortest-path vs CSPF-placed TE LSPs\n"
      "Two 6 Mb/s PE0->PE1 aggregates over 10 Mb/s links (diamond).\n"
      "Paper claim (§3.1): TE 'avoids congested links' where destination\n"
      "routing cannot.\n\n");

  const AggregateResult igp = run(false, 5);
  const AggregateResult te = run(true, 5);

  stats::Table t{"routing",      "loss A %",  "loss B %",  "p99 A ms",
                 "p99 B ms",     "goodput A", "goodput B", "hot-link util",
                 "detour util"};
  auto add = [&](const char* name, const AggregateResult& r) {
    t.add_row({name, stats::Table::num(100 * r.loss_a, 2),
               stats::Table::num(100 * r.loss_b, 2),
               stats::Table::num(r.p99_a_ms, 2),
               stats::Table::num(r.p99_b_ms, 2),
               stats::Table::num(r.goodput_a, 2),
               stats::Table::num(r.goodput_b, 2),
               stats::Table::num(r.hot_util, 2),
               stats::Table::num(r.detour_util, 2)});
  };
  add("IGP shortest path", igp);
  add("RSVP-TE / CSPF", te);
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Shape check: under IGP both aggregates share the hot link (~1/6"
      "\ncombined loss, detour idle); under TE admission control pushes one"
      "\nLSP onto the detour — load spreads evenly, loss ~0 for both, at the"
      "\ncost of slightly higher propagation delay for the detoured"
      "\naggregate. (Utilization columns average over the run plus the 2 s"
      "\ndrain window; during traffic the hot link runs at ~1.0 under IGP"
      "\nvs ~0.6 under TE.)\n");
  return 0;
}
