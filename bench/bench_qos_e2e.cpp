// Experiment E3 — paper §5 (end-to-end QoS over the MPLS backbone).
//
// Claim under test: "the customer premises device could use technologies
// such as CBQ to classify traffic and DiffServ/ToS to mark it ... The
// network edge will then map the CPE-specified DiffServ/ToS service level
// specification into the QoS field of the MPLS header, providing a way to
// protect the service level definition on an end-to-end basis", and §3.1's
// promise of "granular Service Level Agreements with assured performance".
//
// Setup: the Fig.-4 backbone with a deliberately congested core (offered
// load ≈ 1.5x the bottleneck). Three classes: EF voice (CBR), AF video
// (on/off), BE bulk (Poisson). We run the identical workload under four
// core schedulers — best-effort FIFO (the "plain IP" baseline), strict
// priority, WFQ and DRR (the design-choice ablation of DESIGN.md §4) —
// and print the per-class SLA table for each.

#include <cstdio>
#include <memory>

#include "backbone/fixtures.hpp"
#include "qos/queues.hpp"
#include "stats/table.hpp"
#include "traffic/dispatcher.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"
#include "traffic/tcp_lite.hpp"

namespace {

using namespace mvpn;

struct ClassRow {
  double loss = 0;
  double p99_ms = 0;
  double jitter_ms = 0;
  double goodput_mbps = 0;
};

struct RunResult {
  ClassRow ef, af, be;
};

/// Queue factory that may reference the scenario's scheduler (LLQ needs a
/// clock); built after the backbone exists.
using LateQueueFactory =
    std::function<net::QueueDiscFactory(backbone::MplsBackbone&)>;

RunResult run_with_queue(const char* label, const LateQueueFactory& queue,
                         std::uint64_t seed) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 2;
  cfg.pe_count = 2;
  cfg.core_bw_bps = 4e6;  // the bottleneck
  cfg.edge_bw_bps = 20e6;
  cfg.seed = seed;
  // Core queues are installed after construction (see below) so the
  // factory can capture the scheduler; keep the default here and swap.
  backbone::MplsBackbone bb(cfg);
  if (queue) {
    const net::QueueDiscFactory factory = queue(bb);
    for (std::size_t l = 0; l < bb.topo.link_count(); ++l) {
      net::Link& link = bb.topo.link(l);
      link.set_queue_from(link.end_a().node, factory());
      link.set_queue_from(link.end_b().node, factory());
    }
  }
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  // CPE CBQ policy (§5): voice ports → EF, video ports → AF21, rest BE.
  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule voice;
  voice.name = "voice";
  voice.dst_port = qos::PortRange{16384, 16484};
  voice.mark = qos::Phb::kEf;
  classifier->add_rule(voice);
  qos::MatchRule video;
  video.name = "video";
  video.dst_port = qos::PortRange{5004, 5005};
  video.mark = qos::Phb::kAf21;
  classifier->add_rule(video);
  site_a.ce->set_classifier(std::move(classifier));

  qos::SlaProbe probe(label);
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_b.ce);

  // Offered load: 0.4 (EF) + 1.6 (AF) + 4.0 (BE) = 6 Mb/s into a 4 Mb/s
  // core — 1.5x overload.
  using Kind = traffic::FlowSet::Kind;
  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  std::uint32_t flow = 1;
  auto add_flow = [&](qos::Phb phb, std::uint16_t port, std::uint32_t payload,
                      Kind kind, double rate_bps) {
    traffic::FlowSet::FlowDef f;
    f.flow_id = flow;
    f.from_site = flows.add_site(*site_a.ce,
                                 ip::Ipv4Address(10, 1, 0, std::uint8_t(flow)));
    f.to_site = flows.add_site(*site_b.ce,
                               ip::Ipv4Address(10, 2, 0, std::uint8_t(flow)));
    f.kind = kind;
    f.rate_bps = rate_bps;
    f.dst_port = port;
    f.payload_bytes = payload;
    f.vpn = v;
    f.phb = phb;
    flows.add_flow(f);
    sink.expect_flow(flow, phb, v);
    ++flow;
  };
  for (int i = 0; i < 2; ++i) {  // 2 voice calls, 200 kb/s each
    add_flow(qos::Phb::kEf, 16400, 172, Kind::kCbr, 200e3);
  }
  for (int i = 0; i < 2; ++i) {  // 2 video streams, 800 kb/s mean
    add_flow(qos::Phb::kAf21, 5004, 1172, Kind::kOnOff, 1.6e6);
  }
  for (int i = 0; i < 4; ++i) {  // bulk data, 1 Mb/s mean each
    add_flow(qos::Phb::kBe, 80, 1472, Kind::kPoisson, 1e6);
  }

  const sim::SimTime t0 = bb.topo.scheduler().now();
  const double duration_s = 5.0;
  flows.run(t0 + sim::from_seconds(duration_s));
  bb.topo.run_until(t0 + sim::from_seconds(duration_s + 2.0));

  std::printf("--- core scheduler: %s ---\n%s\n", label,
              probe.to_table(duration_s).render().c_str());

  auto row = [&](qos::Phb phb) {
    const auto& r = probe.report(phb);
    return ClassRow{r.loss_fraction(), r.latency_s.percentile(99) * 1e3,
                    probe.jitter_mean_s(phb) * 1e3,
                    r.goodput_bps(duration_s) / 1e6};
  };
  return RunResult{row(qos::Phb::kEf), row(qos::Phb::kAf21),
                   row(qos::Phb::kBe)};
}

/// Second part: the same story with *elastic* data traffic — greedy
/// TCP-like flows instead of open-loop Poisson. The interesting shape: the
/// adaptive bulk traffic fills whatever the scheduler leaves over, so with
/// the QoS chain in place nobody loses — voice keeps its SLA and TCP keeps
/// the link full.
struct ElasticResult {
  double ef_loss = 0;
  double ef_p99_ms = 0;
  double tcp_goodput_mbps = 0;
  double link_utilization = 0;
};

ElasticResult run_elastic(bool diffserv_core, std::uint64_t seed) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.core_bw_bps = 4e6;
  cfg.edge_bw_bps = 20e6;
  cfg.seed = seed;
  if (diffserv_core) {
    cfg.core_queue = [] {
      return std::make_unique<qos::PriorityQueueDisc>(
          3, 100, qos::ef_af_be_selector());
    };
  }
  backbone::MplsBackbone bb(cfg);
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule voice_rule;
  voice_rule.dst_port = qos::PortRange{16384, 16484};
  voice_rule.mark = qos::Phb::kEf;
  classifier->add_rule(voice_rule);
  a.ce->set_classifier(std::move(classifier));

  traffic::FlowDispatcher at_a;
  traffic::FlowDispatcher at_b;
  at_a.attach(*a.ce);
  at_b.attach(*b.ce);

  qos::SlaProbe probe;
  traffic::FlowSet voice_src(bb.topo.scheduler(), &probe, bb.topo.seed());
  traffic::FlowSet::FlowDef voice;
  voice.flow_id = 99;
  voice.from_site =
      voice_src.add_site(*a.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  voice.to_site =
      voice_src.add_site(*b.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  voice.rate_bps = 400e3;
  voice.dst_port = 16400;
  voice.payload_bytes = 172;
  voice.vpn = v;
  voice.phb = qos::Phb::kEf;
  voice_src.add_flow(voice);
  at_b.register_flow(99, [&](const net::Packet& p, vpn::VpnId) {
    probe.record_delivered(qos::Phb::kEf, 99,
                           bb.topo.scheduler().now() - p.created_at,
                           p.payload_bytes + 28);
  });

  // Two greedy elastic flows.
  traffic::TcpLiteFlow::Config tc;
  tc.src = ip::Ipv4Address::must_parse("10.1.0.2");
  tc.dst = ip::Ipv4Address::must_parse("10.2.0.2");
  tc.vpn = v;
  traffic::TcpLiteFlow::Config tc2 = tc;
  tc2.src_port = 30001;
  tc2.src = ip::Ipv4Address::must_parse("10.1.0.3");
  tc2.dst = ip::Ipv4Address::must_parse("10.2.0.3");
  traffic::TcpLiteFlow bulk1(*a.ce, at_a, *b.ce, at_b, 1, tc);
  traffic::TcpLiteFlow bulk2(*a.ce, at_a, *b.ce, at_b, 2, tc2);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  const double duration = 6.0;
  voice_src.run(t0 + sim::from_seconds(duration));
  bulk1.start(t0);
  bulk2.start(t0 + 41 * sim::kMillisecond);
  bb.topo.scheduler().schedule_at(t0 + sim::from_seconds(duration), [&] {
    bulk1.stop();
    bulk2.stop();
  });
  bb.topo.run_until(t0 + sim::from_seconds(duration + 2.0));

  ElasticResult r;
  const auto& ef = probe.report(qos::Phb::kEf);
  r.ef_loss = ef.loss_fraction();
  r.ef_p99_ms = ef.latency_s.percentile(99) * 1e3;
  r.tcp_goodput_mbps =
      (bulk1.goodput_bps(duration) + bulk2.goodput_bps(duration)) / 1e6;
  // Utilization of the congested PE0→P0 link (link 0 with p_count=1).
  r.link_utilization = bb.topo.link(0).utilization_from(
      bb.pe(0).id(), bb.topo.scheduler().now() - t0);
  return r;
}

}  // namespace

int main() {
  std::printf(
      "E3 — end-to-end QoS: CPE CBQ -> DiffServ marking -> DSCP-to-EXP -> "
      "core scheduling\nOffered load 1.5x the 4 Mb/s core bottleneck; "
      "classes: EF voice, AF21 video, BE bulk.\n"
      "Paper claim (§5): the DiffServ-over-MPLS chain protects per-class "
      "SLAs end to end;\nplain best-effort IP cannot.\n\n");

  const auto fifo = run_with_queue(
      "best-effort FIFO (plain IP baseline)",
      [](backbone::MplsBackbone&) -> net::QueueDiscFactory {
        return [] { return std::make_unique<net::DropTailQueue>(100); };
      },
      3);
  const auto prio = run_with_queue(
      "MPLS EXP strict priority",
      [](backbone::MplsBackbone&) -> net::QueueDiscFactory {
        return [] {
          return std::make_unique<qos::PriorityQueueDisc>(
              3, 100, qos::ef_af_be_selector());
        };
      },
      3);
  const auto wfq = run_with_queue(
      "MPLS EXP WFQ (weights 8:3:1)",
      [](backbone::MplsBackbone&) -> net::QueueDiscFactory {
        return [] {
          return std::make_unique<qos::WfqQueueDisc>(
              std::vector<double>{8.0, 3.0, 1.0}, 100,
              qos::ef_af_be_selector());
        };
      },
      3);
  const auto drr = run_with_queue(
      "MPLS EXP DRR (weights 8:3:1)",
      [](backbone::MplsBackbone&) -> net::QueueDiscFactory {
        return [] {
          return std::make_unique<qos::DrrQueueDisc>(
              std::vector<std::uint32_t>{8, 3, 1}, 100,
              qos::ef_af_be_selector());
        };
      },
      3);
  const auto llq = run_with_queue(
      "MPLS EXP LLQ (EF strict @ 1 Mb/s, WFQ 3:1)",
      [](backbone::MplsBackbone& bb) -> net::QueueDiscFactory {
        return qos::LlqQueueDisc::factory(
            {1.0, 3.0, 1.0}, 100, qos::ef_af_be_selector(),
            /*ef rate*/ 1e6 / 8, /*ef burst*/ 6000,
            bb.topo.scheduler());
      },
      3);

  stats::Table t{"scheduler", "EF loss %", "EF p99 ms", "EF jitter ms",
                 "AF loss %", "BE loss %"};
  auto add = [&](const char* name, const RunResult& r) {
    t.add_row({name, stats::Table::num(100 * r.ef.loss, 2),
               stats::Table::num(r.ef.p99_ms, 2),
               stats::Table::num(r.ef.jitter_ms, 3),
               stats::Table::num(100 * r.af.loss, 2),
               stats::Table::num(100 * r.be.loss, 2)});
  };
  add("best-effort FIFO", fifo);
  add("strict priority", prio);
  add("WFQ 8:3:1", wfq);
  add("DRR 8:3:1", drr);
  add("LLQ (policed EF)", llq);
  std::printf("=== summary (the paper's qualitative table) ===\n%s\n",
              t.render().c_str());

  // Part two: elastic (TCP-like) data instead of open-loop bulk.
  const ElasticResult e_fifo = run_elastic(false, 4);
  const ElasticResult e_prio = run_elastic(true, 4);
  stats::Table et{"core scheduler", "EF loss %", "EF p99 ms",
                  "TCP goodput Mb/s", "core util"};
  et.add_row({"best-effort FIFO", stats::Table::num(100 * e_fifo.ef_loss, 2),
              stats::Table::num(e_fifo.ef_p99_ms, 2),
              stats::Table::num(e_fifo.tcp_goodput_mbps, 2),
              stats::Table::num(e_fifo.link_utilization, 2)});
  et.add_row({"EXP priority", stats::Table::num(100 * e_prio.ef_loss, 2),
              stats::Table::num(e_prio.ef_p99_ms, 2),
              stats::Table::num(e_prio.tcp_goodput_mbps, 2),
              stats::Table::num(e_prio.link_utilization, 2)});
  std::printf(
      "=== elastic data (2 greedy TCP-like flows) + 400 kb/s EF voice ===\n"
      "%s\n",
      et.render().c_str());
  std::printf(
      "Elastic shape: with the QoS chain, nobody loses — voice keeps its\n"
      "SLA while the adaptive bulk flows fill all leftover capacity.\n\n");
  std::printf(
      "Shape check: under FIFO every class suffers the overload alike; "
      "under any\nEXP-aware scheduler EF keeps ~zero loss and low bounded "
      "p99/jitter, AF is\nprotected next, and the overload lands on BE — "
      "the paper's end-to-end SLA\nargument. The ablation shows the choice "
      "among priority/WFQ/DRR trades AF vs BE\nfairness, not EF safety.\n");
  return 0;
}
