#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backbone/fixtures.hpp"
#include "generated_run.hpp"
#include "golden.hpp"
#include "qos/queues.hpp"
#include "test_flows.hpp"
#include "traffic/dispatcher.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"
#include "traffic/tcp_lite.hpp"

namespace mvpn::traffic {
namespace {

using backbone::Figure2Scenario;
using backbone::make_figure2_scenario;

/// One flow of `kind` from VPN 1's site 1 to site 2 of a fresh Figure-2
/// fixture, run for `run_s` seconds after convergence; returns packets
/// sent, after checking every one was delivered.
std::uint64_t sent_by_one_flow(std::uint64_t seed, FlowSet::Kind kind,
                               double rate_bps, double run_s) {
  Figure2Scenario s = make_figure2_scenario(seed);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  FlowSet flows(s.backbone->topo.scheduler(), &probe, s.backbone->topo.seed());
  FlowSet::FlowDef f =
      testutil::flow_between(flows, 1, *s.v1_site1.ce, "10.1.0.1",
                             *s.v1_site2.ce, "10.2.0.1", rate_bps, s.vpn1);
  f.kind = kind;
  f.on_s = 0.1;
  f.off_s = 0.1;
  flows.add_flow(f);
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  const sim::SimTime t0 = s.backbone->topo.scheduler().now();
  flows.run(t0 + sim::from_seconds(run_s));
  s.backbone->topo.run_until(t0 + sim::from_seconds(run_s + 2.0));
  EXPECT_EQ(sink.delivered(), flows.packets_sent());
  return flows.packets_sent();
}

TEST(FlowSet, CbrRateIsExact) {
  // 1 Mb/s at 4000 bits per packet (500 B at IP level) = 250 pps for 2 s.
  EXPECT_NEAR(static_cast<double>(
                  sent_by_one_flow(101, FlowSet::Kind::kCbr, 1e6, 2.0)),
              500.0, 2.0);
}

TEST(FlowSet, PoissonMeanRateApproximates) {
  EXPECT_NEAR(static_cast<double>(
                  sent_by_one_flow(102, FlowSet::Kind::kPoisson, 1e6, 4.0)),
              1000.0, 100.0);
}

TEST(FlowSet, OnOffDutyCycleScalesThroughput) {
  // 2 Mb/s peak, 50% duty → ~1 Mb/s mean.
  const double mean_bps =
      static_cast<double>(
          sent_by_one_flow(103, FlowSet::Kind::kOnOff, 2e6, 4.0)) *
      500 * 8 / 4.0;
  EXPECT_GT(mean_bps, 0.6e6);
  EXPECT_LT(mean_bps, 1.4e6);
}

TEST(FlowDispatcher, RoutesByFlowIdWithDefault) {
  net::Topology topo;
  auto& r = topo.add_node<vpn::Router>("r", vpn::Role::kCe);
  r.add_local_prefix(ip::Prefix::must_parse("10.0.0.0/8"));
  FlowDispatcher dispatch;
  dispatch.attach(r);
  int flow_7 = 0;
  int fallback = 0;
  dispatch.register_flow(7, [&](const net::Packet&, vpn::VpnId) { ++flow_7; });
  dispatch.set_default([&](const net::Packet&, vpn::VpnId) { ++fallback; });
  for (std::uint32_t id : {7u, 8u, 7u}) {
    auto p = topo.packet_factory().make();
    p->flow_id = id;
    p->ip.dst = ip::Ipv4Address::must_parse("10.0.0.1");
    r.inject(std::move(p));
  }
  EXPECT_EQ(flow_7, 2);
  EXPECT_EQ(fallback, 1);
  dispatch.unregister_flow(7);
  auto p = topo.packet_factory().make();
  p->flow_id = 7;
  p->ip.dst = ip::Ipv4Address::must_parse("10.0.0.1");
  r.inject(std::move(p));
  EXPECT_EQ(fallback, 2);
}

/// Run `defs` (with `start` interpreted relative to convergence) on a fresh
/// Figure-2 fixture for `run_s` seconds, all flows site1 → site2 of VPN 1,
/// and summarize the (packet id, emission instant) pairs observed at the
/// destination CE the way tests/golden/flowset_logs.txt records them: FNV-1a
/// digest, packet count, then per-flow sent counts. The packet id encodes
/// (flow_id << 32) | seq, so an equal digest means equal flows, sequence
/// numbers, emission instants and delivery order.
std::vector<std::string> run_mix(std::uint64_t seed,
                                 const std::vector<FlowSet::FlowDef>& defs,
                                 double run_s) {
  Figure2Scenario s = make_figure2_scenario(seed);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  golden::Fnv digest;
  std::uint64_t packets = 0;
  s.v1_site2.ce->add_delivery_tap([&](const net::Packet& p, vpn::VpnId) {
    digest.mix(p.id);
    digest.mix(static_cast<std::uint64_t>(p.created_at));
    ++packets;
  });
  sim::Scheduler& sched = s.backbone->topo.scheduler();
  const sim::SimTime t0 = sched.now();
  const sim::SimTime stop = t0 + sim::from_seconds(run_s);
  FlowSet fs(sched, &probe, s.backbone->topo.seed());
  const std::uint32_t from =
      fs.add_site(*s.v1_site1.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  const std::uint32_t to =
      fs.add_site(*s.v1_site2.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  for (FlowSet::FlowDef d : defs) {
    d.from_site = from;
    d.to_site = to;
    d.vpn = s.vpn1;
    d.start = t0 + d.start;
    fs.add_flow(d);
  }
  fs.run(stop);
  s.backbone->topo.run_until(stop + sim::kSecond);
  std::vector<std::string> summary{digest.hex(), std::to_string(packets)};
  for (std::uint32_t row = 0; row < defs.size(); ++row) {
    summary.push_back(std::to_string(fs.packets_sent(row)));
  }
  return summary;
}

TEST(FlowSet, MixedKindsMatchGoldenPacketLog) {
  std::vector<FlowSet::FlowDef> defs(3);
  defs[0].flow_id = 1;
  defs[0].kind = FlowSet::Kind::kCbr;
  defs[0].rate_bps = 200e3;
  defs[0].phb = qos::Phb::kEf;
  defs[0].premark = true;
  defs[0].dst_port = 16400;
  defs[0].payload_bytes = 172;
  defs[1].flow_id = 2;
  defs[1].kind = FlowSet::Kind::kPoisson;
  defs[1].rate_bps = 1e6;
  defs[1].start = sim::from_seconds(0.01);
  defs[2].flow_id = 3;
  defs[2].kind = FlowSet::Kind::kOnOff;
  defs[2].rate_bps = 2e6;
  defs[2].on_s = 0.05;
  defs[2].off_s = 0.02;
  defs[2].phb = qos::Phb::kAf21;
  defs[2].dst_port = 5004;
  defs[2].start = sim::from_seconds(0.02);

  const std::vector<std::string> golden_row =
      golden::row("flowset_logs.txt", "kinds");
  ASSERT_EQ(golden_row.size(), 5u);
  EXPECT_EQ(run_mix(7101, defs, 2.0), golden_row);
  // Sanity: the golden log covers real traffic from every flow kind.
  EXPECT_GT(std::stoull(golden_row[1]), 500u);
  for (std::size_t i = 2; i < golden_row.size(); ++i) {
    EXPECT_GT(std::stoull(golden_row[i]), 50u);
  }
}

TEST(FlowSet, OnOffResidueMatchesGoldenBurstBookkeeping) {
  // One on/off flow over enough sim time for hundreds of burst cycles: the
  // packets-remaining residue (ceil(burst / on-interval) per drawn burst)
  // must reproduce the recorded log draw for draw — same RNG consumption,
  // same emission instants, same per-burst packet counts.
  std::vector<FlowSet::FlowDef> defs(1);
  defs[0].flow_id = 11;
  defs[0].kind = FlowSet::Kind::kOnOff;
  defs[0].rate_bps = 2e6;
  defs[0].on_s = 0.03;
  defs[0].off_s = 0.01;

  const std::vector<std::string> golden_row =
      golden::row("flowset_logs.txt", "onoff_residue");
  ASSERT_EQ(golden_row.size(), 3u);
  EXPECT_EQ(run_mix(7102, defs, 30.0), golden_row);
  // Many bursts, many residue cycles.
  EXPECT_GT(std::stoull(golden_row[2]), 5000u);
}

TEST(FlowSet, StateStaysUnder64BytesPerFlow) {
  Figure2Scenario s = make_figure2_scenario(7103);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  sim::Scheduler& sched = s.backbone->topo.scheduler();
  FlowSet fs(sched, &probe, s.backbone->topo.seed());
  const std::uint32_t a =
      fs.add_site(*s.v1_site1.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  const std::uint32_t b =
      fs.add_site(*s.v1_site2.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  constexpr std::uint32_t kFlows = 10'000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    FlowSet::FlowDef d;
    d.flow_id = i + 1;
    d.from_site = a;
    d.to_site = b;
    d.kind = i % 3 == 0   ? FlowSet::Kind::kCbr
             : i % 3 == 1 ? FlowSet::Kind::kPoisson
                          : FlowSet::Kind::kOnOff;
    d.rate_bps = 1e4 + i;  // distinct intervals, shared template
    d.vpn = s.vpn1;
    fs.add_flow(d);
  }
  fs.run(sched.now() + sim::kSecond);
  EXPECT_EQ(fs.flow_count(), kFlows);
  // The tentpole budget: ≤64 B of SoA state per flow, 16 B per calendar
  // entry, regardless of how the build-time vectors grew.
  EXPECT_LE(fs.state_bytes_per_flow(), 64.0);
  EXPECT_EQ(fs.calendar_bytes(), kFlows * 16u);
}

// Malformed declarations fail in every build type and leave no partial
// row behind.
TEST(FlowSet, AddFlowRejectsUnknownSite) {
  sim::Scheduler sched;
  FlowSet fs(sched, nullptr, 1);
  FlowSet::FlowDef d;
  d.flow_id = 1;
  EXPECT_THROW(fs.add_flow(d), std::out_of_range);
  EXPECT_EQ(fs.flow_count(), 0u);
}

TEST(FlowSet, AddFlowRejectsTemplateOverflow) {
  Figure2Scenario s = make_figure2_scenario(7104);
  sim::Scheduler& sched = s.backbone->topo.scheduler();
  FlowSet fs(sched, nullptr, s.backbone->topo.seed());
  const std::uint32_t a =
      fs.add_site(*s.v1_site1.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  FlowSet::FlowDef d;
  d.from_site = a;
  d.to_site = a;
  // One distinct template per flow: 0xFFFF of them fit a 2-byte index.
  constexpr std::uint32_t kTemplates = 0xFFFF;
  for (std::uint32_t i = 0; i < kTemplates; ++i) {
    d.flow_id = i + 1;
    d.protocol = static_cast<std::uint8_t>(i);
    d.src_port = static_cast<std::uint16_t>(i >> 8);
    fs.add_flow(d);
  }
  d.flow_id = kTemplates + 1;
  d.protocol = 0xFF;
  d.src_port = 0xFF;
  EXPECT_THROW(fs.add_flow(d), std::length_error);
  EXPECT_EQ(fs.flow_count(), kTemplates);
  d.src_port = 0;  // an existing template still interns
  fs.add_flow(d);
  EXPECT_EQ(fs.flow_count(), kTemplates + 1);
}

/// The megaflow acceptance point of bench_scalability --megaflow-only, same
/// plan and window: 10^5 generated flows over 0.2 s must deliver the same
/// packets and merged per-class SLA table on one lane and on four, with
/// the FlowSet engine inside its 64 B/flow source-state budget. The two
/// simulations share nothing, so the serial one runs beside the sharded
/// one on its own thread.
TEST(FlowSet, HundredThousandFlowsMatchAcrossShardsUnder64BytesPerFlow) {
  const backbone::GeneratedPlan plan = harness::isp_plan(100'000);
  auto serial_run = std::async(std::launch::async, [&plan] {
    return harness::run_topogen(plan, 1, 0.2);
  });
  const harness::ShardedResult four = harness::run_topogen(plan, 4, 0.2);
  const harness::ShardedResult serial = serial_run.get();
  EXPECT_GT(serial.thr.delivered, 0u);
  EXPECT_EQ(four.thr.delivered, serial.thr.delivered);
  EXPECT_EQ(four.sla_csv, serial.sla_csv);
  EXPECT_LE(static_cast<double>(serial.src_state_bytes) /
                static_cast<double>(plan.flows.size()),
            64.0);
}

TEST(MeasurementSink, DenseTableHandlesSparseAndUnknownFlowIds) {
  net::Topology topo;
  qos::SlaProbe probe;
  MeasurementSink sink(probe, topo.scheduler());
  sink.expect_flow(5, qos::Phb::kEf, 3);
  auto deliver = [&](std::uint32_t fid, vpn::VpnId truth, vpn::VpnId ctx) {
    auto p = topo.packet_factory().make();
    p->flow_id = fid;
    p->true_vpn_id = truth;
    sink.on_delivery(*p, ctx);
  };
  deliver(5, 3, 3);     // expected flow, right VPN
  deliver(3, 3, 3);     // gap inside the table → unknown
  deliver(9999, 3, 3);  // far past the table → unknown, no resize, no crash
  deliver(5, 3, 4);     // wrong VPN context → leak, counted before flows
  EXPECT_EQ(sink.delivered(), 4u);
  EXPECT_EQ(sink.unknown_flows(), 2u);
  EXPECT_EQ(sink.leaks(), 1u);
}

TEST(FlowDispatcher, DefaultRoutesUnclaimedDeliveriesToSink) {
  // Regression for the mixed cbr+tcp accounting hole: packets whose flow has
  // no dispatcher registration must still reach the MeasurementSink via the
  // default handler instead of being silently dropped.
  net::Topology topo;
  auto& r = topo.add_node<vpn::Router>("r", vpn::Role::kCe);
  r.add_local_prefix(ip::Prefix::must_parse("10.0.0.0/8"));
  qos::SlaProbe probe;
  MeasurementSink sink(probe, topo.scheduler());
  sink.expect_flow(8, qos::Phb::kBe, vpn::kGlobalVpn);
  FlowDispatcher dispatch;
  dispatch.attach(r);
  int claimed = 0;
  dispatch.register_flow(7, [&](const net::Packet&, vpn::VpnId) { ++claimed; });
  dispatch.set_default([&sink](const net::Packet& p, vpn::VpnId vpn) {
    sink.on_delivery(p, vpn);
  });
  for (std::uint32_t id : {7u, 8u, 9u}) {
    auto p = topo.packet_factory().make();
    p->flow_id = id;
    p->ip.dst = ip::Ipv4Address::must_parse("10.0.0.1");
    r.inject(std::move(p));
  }
  EXPECT_EQ(claimed, 1);
  EXPECT_EQ(sink.delivered(), 2u);      // flows 8 and 9 fell through
  EXPECT_EQ(sink.unknown_flows(), 1u);  // 9 had no expectation
  EXPECT_EQ(sink.leaks(), 0u);
}

struct TcpFixture {
  Figure2Scenario s;
  FlowDispatcher at_site1;
  FlowDispatcher at_site2;

  explicit TcpFixture(std::uint64_t seed) : s(make_figure2_scenario(seed)) {
    s.backbone->start_and_converge();
    at_site1.attach(*s.v1_site1.ce);
    at_site2.attach(*s.v1_site2.ce);
  }

  TcpLiteFlow::Config config() const {
    TcpLiteFlow::Config c;
    c.src = ip::Ipv4Address::must_parse("10.1.0.1");
    c.dst = ip::Ipv4Address::must_parse("10.2.0.1");
    c.vpn = s.vpn1;
    return c;
  }
};

TEST(TcpLite, CompletesCleanTransferWithoutRetransmits) {
  TcpFixture f(104);
  TcpLiteFlow::Config cfg = f.config();
  cfg.total_segments = 200;
  TcpLiteFlow flow(*f.s.v1_site1.ce, f.at_site1, *f.s.v1_site2.ce,
                   f.at_site2, 1, cfg);
  flow.start(0);
  f.s.backbone->topo.run_until(20 * sim::kSecond);
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.bytes_acked(), 200u * cfg.mss_payload);
  EXPECT_EQ(flow.retransmits(), 0u);
  EXPECT_EQ(flow.timeouts(), 0u);
  EXPECT_GT(flow.completed_at(), 0);
}

TEST(TcpLite, SlowStartGrowsWindow) {
  TcpFixture f(105);
  TcpLiteFlow::Config cfg = f.config();
  cfg.total_segments = 100;
  cfg.initial_cwnd = 2.0;
  TcpLiteFlow flow(*f.s.v1_site1.ce, f.at_site1, *f.s.v1_site2.ce,
                   f.at_site2, 1, cfg);
  flow.start(0);
  f.s.backbone->topo.run_until(20 * sim::kSecond);
  EXPECT_TRUE(flow.complete());
  EXPECT_GT(flow.cwnd(), 10.0);  // grew far beyond the initial window
}

TEST(TcpLite, AdaptsToBottleneckAndRecovers) {
  // Congest a 2 Mb/s core with two competing elastic flows.
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.core_bw_bps = 2e6;
  cfg.edge_bw_bps = 20e6;
  cfg.seed = 106;
  backbone::MplsBackbone bb(cfg);
  // RED on the core links: drop-tail would phase-lock the two identical
  // flows into lockout (the very pathology RED was designed to break).
  for (std::size_t l = 0; l < bb.topo.link_count(); ++l) {
    net::Link& link = bb.topo.link(l);
    qos::RedParams red;
    red.capacity_packets = 100;
    red.min_th = 15;
    red.max_th = 60;
    red.bandwidth_bps = cfg.core_bw_bps;
    link.set_queue_from(link.end_a().node,
                        std::make_unique<qos::RedQueueDisc>(
                            red, bb.topo.scheduler(), sim::Rng(l + 1)));
    link.set_queue_from(link.end_b().node,
                        std::make_unique<qos::RedQueueDisc>(
                            red, bb.topo.scheduler(), sim::Rng(l + 100)));
  }
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();
  FlowDispatcher at_a;
  FlowDispatcher at_b;
  at_a.attach(*a.ce);
  at_b.attach(*b.ce);

  TcpLiteFlow::Config c1;
  c1.src = ip::Ipv4Address::must_parse("10.1.0.1");
  c1.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  c1.vpn = v;
  TcpLiteFlow::Config c2 = c1;
  c2.src = ip::Ipv4Address::must_parse("10.1.0.2");
  c2.dst = ip::Ipv4Address::must_parse("10.2.0.2");
  c2.src_port = 30001;

  TcpLiteFlow f1(*a.ce, at_a, *b.ce, at_b, 1, c1);
  TcpLiteFlow f2(*a.ce, at_a, *b.ce, at_b, 2, c2);
  const sim::SimTime t0 = bb.topo.scheduler().now();
  f1.start(t0);
  f2.start(t0 + 37 * sim::kMillisecond);  // decorrelate the slow starts
  const double duration = 10.0;
  bb.topo.scheduler().schedule_at(t0 + sim::from_seconds(duration), [&] {
    f1.stop();
    f2.stop();
  });
  bb.topo.run_until(t0 + sim::from_seconds(duration + 2.0));

  const double g1 = f1.goodput_bps(duration);
  const double g2 = f2.goodput_bps(duration);
  // Combined goodput ≈ bottleneck (headers cost a few %); congestion was
  // real (losses → retransmits), and the split is roughly fair.
  EXPECT_GT(g1 + g2, 1.4e6);
  EXPECT_LT(g1 + g2, 2.05e6);
  EXPECT_GT(f1.retransmits() + f2.retransmits(), 0u);
  // Short-run Reno fairness is noisy; require same order of magnitude.
  EXPECT_LT(std::max(g1, g2) / std::min(g1, g2), 6.0);
}

TEST(TcpLite, ElasticYieldsToPriorityVoice) {
  // EF voice + greedy TCP on a priority-queued core: voice is untouched,
  // TCP soaks up the rest.
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.core_bw_bps = 2e6;
  cfg.edge_bw_bps = 20e6;
  cfg.seed = 107;
  cfg.core_queue = [] {
    return std::make_unique<qos::PriorityQueueDisc>(
        3, 100, qos::ef_af_be_selector());
  };
  backbone::MplsBackbone bb(cfg);
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule voice_rule;
  voice_rule.dst_port = qos::PortRange::exactly(16400);
  voice_rule.mark = qos::Phb::kEf;
  classifier->add_rule(voice_rule);
  a.ce->set_classifier(std::move(classifier));

  FlowDispatcher at_a;
  FlowDispatcher at_b;
  at_a.attach(*a.ce);
  at_b.attach(*b.ce);

  qos::SlaProbe voice_probe;
  FlowSet voice_src(bb.topo.scheduler(), &voice_probe, bb.topo.seed());
  FlowSet::FlowDef voice = testutil::flow_between(
      voice_src, 9, *a.ce, "10.1.0.1", *b.ce, "10.2.0.1", 200e3, v);
  voice.dst_port = 16400;
  voice.payload_bytes = 172;
  voice.phb = qos::Phb::kEf;
  voice_src.add_flow(voice);
  at_b.register_flow(9, [&](const net::Packet& p, vpn::VpnId) {
    voice_probe.record_delivered(qos::Phb::kEf, 9,
                                 bb.topo.scheduler().now() - p.created_at,
                                 p.payload_bytes + 28);
  });

  TcpLiteFlow::Config c;
  c.src = ip::Ipv4Address::must_parse("10.1.0.2");
  c.dst = ip::Ipv4Address::must_parse("10.2.0.2");
  c.vpn = v;
  TcpLiteFlow bulk(*a.ce, at_a, *b.ce, at_b, 1, c);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  voice_src.run(t0 + 5 * sim::kSecond);
  bulk.start(t0);
  bb.topo.scheduler().schedule_at(t0 + 5 * sim::kSecond,
                                  [&] { bulk.stop(); });
  bb.topo.run_until(t0 + 7 * sim::kSecond);

  const auto& ef = voice_probe.report(qos::Phb::kEf);
  EXPECT_LT(ef.loss_fraction(), 0.01);
  EXPECT_LT(ef.latency_s.percentile(99), 0.030);
  // The elastic flow still moved real data through the leftover capacity.
  EXPECT_GT(bulk.goodput_bps(5.0), 1e6);
}

}  // namespace
}  // namespace mvpn::traffic
