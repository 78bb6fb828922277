// The paper's Figure-4 / §5 scenario as a runnable program: an enterprise
// sends voice, video and bulk data across a DiffServ-over-MPLS backbone
// whose core link is congested. The CPE classifies and marks (CBQ →
// DSCP), the PE maps DSCP into the MPLS EXP bits, and the core schedules
// by EXP (WFQ). The program prints the per-class SLA report and the same
// run with a plain best-effort core for contrast.

#include <cstdio>
#include <memory>

#include "backbone/fixtures.hpp"
#include "qos/queues.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

using namespace mvpn;

namespace {

void run(bool diffserv_core) {
  backbone::BackboneConfig config;
  config.p_count = 2;
  config.pe_count = 2;
  config.core_bw_bps = 4e6;  // deliberately tight
  config.edge_bw_bps = 20e6;
  config.seed = 4242;
  if (diffserv_core) {
    config.core_queue = [] {
      return std::make_unique<qos::WfqQueueDisc>(
          std::vector<double>{8.0, 3.0, 1.0}, 100, qos::ef_af_be_selector());
    };
  }
  backbone::MplsBackbone bb(config);
  const vpn::VpnId v = bb.service.create_vpn("enterprise");
  auto hq = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto dc = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  // CPE policy (§5): RTP voice → EF with a policer, video → AF21, rest BE.
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
  hq.ce->set_classifier(std::move(classifier));
  // EF contract: 500 kb/s; excess voice is dropped at the edge rather than
  // poisoning the priority queue.
  hq.ce->add_policer(qos::Phb::kEf, 500e3 / 8, 4000, 4000);

  qos::SlaProbe probe(diffserv_core ? "diffserv+mpls" : "best-effort");
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*dc.ce);

  using Kind = traffic::FlowSet::Kind;
  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  std::uint32_t id = 1;
  auto add = [&](Kind kind, double rate_bps, std::uint16_t port,
                 std::uint32_t payload, qos::Phb phb) {
    traffic::FlowSet::FlowDef f;
    f.flow_id = id;
    f.from_site =
        flows.add_site(*hq.ce, ip::Ipv4Address(10, 1, 0, std::uint8_t(id)));
    f.to_site =
        flows.add_site(*dc.ce, ip::Ipv4Address(10, 2, 0, std::uint8_t(id)));
    f.kind = kind;
    f.rate_bps = rate_bps;
    f.on_s = 0.3;
    f.off_s = 0.2;
    f.dst_port = port;
    f.payload_bytes = payload;
    f.vpn = v;
    f.phb = phb;
    flows.add_flow(f);
    sink.expect_flow(id, phb, v);
    ++id;
  };
  // Two G.711-ish calls (~200 kb/s each), one video stream, three bulk
  // transfers: ~6 Mb/s offered into the 4 Mb/s core.
  add(Kind::kCbr, 200e3, 16400, 172, qos::Phb::kEf);
  add(Kind::kCbr, 200e3, 16402, 172, qos::Phb::kEf);
  add(Kind::kOnOff, 2e6, 5004, 1172, qos::Phb::kAf21);
  for (int i = 0; i < 3; ++i) add(Kind::kPoisson, 1.4e6, 80, 1472, qos::Phb::kBe);

  const double duration = 5.0;
  flows.run(sim::from_seconds(duration));
  bb.topo.run_until(sim::from_seconds(duration + 2.0));

  std::printf("=== core: %s ===\n%s\n",
              diffserv_core ? "MPLS EXP WFQ 8:3:1 (paper §5 architecture)"
                            : "best-effort FIFO",
              probe.to_table(duration).render().c_str());
}

}  // namespace

int main() {
  std::printf("Enterprise QoS across a congested MPLS backbone "
              "(~6 Mb/s offered, 4 Mb/s core)\n\n");
  run(false);
  run(true);
  std::printf(
      "Reading: with the end-to-end chain in place, EF keeps single-digit\n"
      "p99 latency and zero loss through the same congestion that best-\n"
      "effort queueing spreads over every class.\n");
  return 0;
}
