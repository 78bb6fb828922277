#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "net/packet.hpp"
#include "qos/admission.hpp"
#include "qos/classifier.hpp"
#include "qos/dscp.hpp"
#include "qos/meter.hpp"
#include "qos/queues.hpp"
#include "qos/sla.hpp"
#include "qos/token_bucket.hpp"
#include "stats/running_stats.hpp"

namespace mvpn::qos {
namespace {

net::PacketPtr make_packet(std::uint8_t dscp = 0, std::size_t payload = 472) {
  auto p = net::make_standalone_packet();
  p->ip.src = ip::Ipv4Address::must_parse("10.1.0.1");
  p->ip.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  p->ip.dscp = dscp;
  p->l4.src_port = 5060;
  p->l4.dst_port = 4000;
  p->payload_bytes = payload;
  return p;
}

TEST(Dscp, CodepointsMatchRfc) {
  EXPECT_EQ(dscp_of(Phb::kEf), 46);
  EXPECT_EQ(dscp_of(Phb::kBe), 0);
  EXPECT_EQ(dscp_of(Phb::kAf11), 10);
  EXPECT_EQ(dscp_of(Phb::kAf43), 38);
  EXPECT_EQ(dscp_of(Phb::kCs6), 48);
}

TEST(Dscp, RoundTripAllPhbs) {
  for (int i = 0; i < static_cast<int>(kPhbCount); ++i) {
    const Phb phb = static_cast<Phb>(i);
    EXPECT_EQ(phb_of_dscp(dscp_of(phb)), phb) << to_string(phb);
  }
  EXPECT_EQ(phb_of_dscp(63), Phb::kBe);  // unknown codepoint → default
}

TEST(Dscp, DropPrecedenceAndClass) {
  EXPECT_EQ(drop_precedence(Phb::kAf11), 1u);
  EXPECT_EQ(drop_precedence(Phb::kAf12), 2u);
  EXPECT_EQ(drop_precedence(Phb::kAf13), 3u);
  EXPECT_EQ(drop_precedence(Phb::kEf), 1u);
  EXPECT_EQ(af_class(Phb::kAf32), 3u);
  EXPECT_EQ(af_class(Phb::kEf), 0u);
}

TEST(DscpExpMap, DefaultMapping) {
  DscpExpMap map;
  EXPECT_EQ(map.exp_for_phb(Phb::kEf), 5);
  EXPECT_EQ(map.exp_for_phb(Phb::kBe), 0);
  EXPECT_EQ(map.exp_for_phb(Phb::kAf21), 2);
  EXPECT_EQ(map.exp_for_phb(Phb::kAf23), 2);  // precedence collapses
  EXPECT_EQ(map.exp_for_dscp(46), 5);
  EXPECT_EQ(map.dscp_for_exp(5), 46);
  EXPECT_EQ(map.dscp_for_exp(0), 0);
}

TEST(DscpExpMap, Customizable) {
  DscpExpMap map;
  map.set(Phb::kEf, 7);
  EXPECT_EQ(map.exp_for_phb(Phb::kEf), 7);
  EXPECT_EQ(map.dscp_for_exp(7), 46);
}

TEST(VisibleClassBits, LabeledUsesExp) {
  auto p = make_packet(46);
  EXPECT_EQ(visible_class_bits(*p), 5);  // DSCP-derived
  p->push_label(net::MplsShim{100, 3, 64});
  EXPECT_EQ(visible_class_bits(*p), 3);  // EXP wins once labeled
}

TEST(TokenBucket, ConformsUpToBurstThenRefills) {
  TokenBucket tb(1000.0, 500.0);  // 1000 B/s, 500 B burst
  EXPECT_TRUE(tb.consume(0, 500));
  EXPECT_FALSE(tb.consume(0, 1));
  // After 100 ms: 100 bytes back.
  EXPECT_TRUE(tb.consume(100 * sim::kMillisecond, 100));
  EXPECT_FALSE(tb.consume(100 * sim::kMillisecond, 1));
  // Never exceeds the burst depth.
  EXPECT_DOUBLE_EQ(tb.available(1000 * sim::kSecond), 500.0);
}

TEST(TokenBucket, RejectsBadParams) {
  EXPECT_THROW(TokenBucket(0, 100), std::invalid_argument);
  EXPECT_THROW(TokenBucket(100, 0), std::invalid_argument);
}

TEST(SrTcm, ColorsGreenYellowRed) {
  SrTcmMeter meter(1000.0, 500.0, 500.0);
  EXPECT_EQ(meter.meter(0, 400), Color::kGreen);
  EXPECT_EQ(meter.meter(0, 400), Color::kYellow);  // CBS gone, EBS takes it
  EXPECT_EQ(meter.meter(0, 400), Color::kRed);     // both exhausted
  EXPECT_EQ(meter.green().value(), 1u);
  EXPECT_EQ(meter.yellow().value(), 1u);
  EXPECT_EQ(meter.red().value(), 1u);
}

TEST(Classifier, MatchesOnPortsAndPrefix) {
  CbqClassifier c;
  MatchRule voice;
  voice.name = "voice";
  voice.dst_port = PortRange{4000, 4999};
  voice.mark = Phb::kEf;
  c.add_rule(voice);
  MatchRule bulk;
  bulk.name = "bulk";
  bulk.src = ip::Prefix::must_parse("10.1.0.0/16");
  bulk.mark = Phb::kAf11;
  c.add_rule(bulk);

  auto p = make_packet();
  EXPECT_EQ(c.classify(*p), Phb::kEf);  // first match wins
  p->l4.dst_port = 80;
  EXPECT_EQ(c.classify(*p), Phb::kAf11);
  p->ip.src = ip::Ipv4Address::must_parse("11.0.0.1");
  EXPECT_EQ(c.classify(*p), Phb::kBe);
  EXPECT_EQ(c.hits(0), 1u);
  EXPECT_EQ(c.hits(1), 1u);
  EXPECT_EQ(c.unmatched().value(), 1u);
}

TEST(Classifier, CompiledIndexKeepsFirstMatchTieBreak) {
  // The compiled index splits rules into exact-dst-port buckets and a
  // fallback list (ranges / any-port / port-blind). This test pins the
  // tie-break: when a bucketed rule and a fallback rule both match, the
  // LOWER rule index must win regardless of which list it lives on.
  CbqClassifier c;
  MatchRule range;  // index 0: fallback list (port range)
  range.name = "range";
  range.dst_port = PortRange{4000, 4999};
  range.mark = Phb::kAf21;
  c.add_rule(range);
  MatchRule exact;  // index 1: port bucket 4000
  exact.name = "exact";
  exact.dst_port = PortRange::exactly(4000);
  exact.mark = Phb::kEf;
  c.add_rule(exact);
  EXPECT_EQ(c.fallback_rule_count(), 1u);

  auto p = make_packet();  // dst_port 4000: both rules match
  EXPECT_EQ(c.classify(*p), Phb::kAf21);  // index 0 wins, not the bucket
  EXPECT_EQ(c.hits(0), 1u);
  EXPECT_EQ(c.hits(1), 0u);

  // Mirror image: exact-port rule first, overlapping range second.
  CbqClassifier c2;
  c2.add_rule(exact);  // index 0: bucket
  c2.add_rule(range);  // index 1: fallback
  EXPECT_EQ(c2.classify(*p), Phb::kEf);
  p->l4.dst_port = 4500;  // bucket misses, fallback still matches
  EXPECT_EQ(c2.classify(*p), Phb::kAf21);

  // Mutation bumps the generation (flow caches key off this).
  const std::uint64_t gen = c2.generation();
  MatchRule blind;  // port-blind: fallback
  blind.src = ip::Prefix::must_parse("10.1.0.0/16");
  blind.mark = Phb::kAf11;
  c2.add_rule(blind);
  EXPECT_GT(c2.generation(), gen);
  EXPECT_EQ(c2.fallback_rule_count(), 2u);
}

TEST(Classifier, DecideReportsRuleAndCountsHit) {
  CbqClassifier c;
  MatchRule voice;
  voice.dst_port = PortRange::exactly(4000);
  voice.mark = Phb::kEf;
  c.add_rule(voice);

  auto p = make_packet();
  const CbqClassifier::Decision d = c.decide(visible_fields(*p));
  EXPECT_EQ(d.phb, Phb::kEf);
  EXPECT_EQ(d.rule, 0);
  EXPECT_EQ(c.hits(0), 1u);
  c.count_hit(d.rule);  // cached-decision replay path
  EXPECT_EQ(c.hits(0), 2u);

  p->l4.dst_port = 80;
  const CbqClassifier::Decision miss = c.decide(visible_fields(*p));
  EXPECT_EQ(miss.phb, Phb::kBe);
  EXPECT_EQ(miss.rule, CbqClassifier::kUnmatched);
  EXPECT_EQ(c.unmatched().value(), 1u);
  c.count_hit(CbqClassifier::kUnmatched);
  EXPECT_EQ(c.unmatched().value(), 2u);
}

TEST(Classifier, MarkWritesDscp) {
  CbqClassifier c;
  MatchRule r;
  r.dst_port = PortRange::exactly(4000);
  r.mark = Phb::kEf;
  c.add_rule(r);
  auto p = make_packet();
  EXPECT_EQ(c.mark(*p), Phb::kEf);
  EXPECT_EQ(p->ip.dscp, 46);
}

TEST(Classifier, EncryptionHidesPorts) {
  // The paper's §3 argument: once ESP encapsulates the packet, port-based
  // rules cannot match — classification collapses to best effort.
  CbqClassifier c;
  MatchRule voice;
  voice.dst_port = PortRange{4000, 4999};
  voice.mark = Phb::kEf;
  c.add_rule(voice);

  auto p = make_packet();
  EXPECT_EQ(c.classify(*p), Phb::kEf);

  net::EspEncap esp;
  esp.outer.src = ip::Ipv4Address::must_parse("1.1.1.1");
  esp.outer.dst = ip::Ipv4Address::must_parse("2.2.2.2");
  esp.outer.protocol = net::kProtocolEsp;
  p->esp = esp;
  EXPECT_EQ(c.classify(*p), Phb::kBe);  // rule can no longer see the port
}

TEST(Classifier, OuterHeaderRulesStillMatchEncrypted) {
  CbqClassifier c;
  MatchRule tunnel;
  tunnel.protocol = net::kProtocolEsp;
  tunnel.mark = Phb::kAf21;
  c.add_rule(tunnel);
  auto p = make_packet();
  net::EspEncap esp;
  esp.outer.protocol = net::kProtocolEsp;
  p->esp = esp;
  EXPECT_EQ(c.classify(*p), Phb::kAf21);
  c.mark(*p);
  EXPECT_EQ(p->esp->outer.dscp, dscp_of(Phb::kAf21));
  EXPECT_EQ(p->ip.dscp, 0);  // inner untouched
}

TEST(PriorityQueue, ServesHighBandFirst) {
  PriorityQueueDisc q(3, 10, ef_af_be_selector());
  auto be = make_packet(0);
  auto ef = make_packet(46);
  auto af = make_packet(10);
  q.enqueue(std::move(be));
  q.enqueue(std::move(af));
  q.enqueue(std::move(ef));
  EXPECT_EQ(q.dequeue()->ip.dscp, 46);
  EXPECT_EQ(q.dequeue()->ip.dscp, 10);
  EXPECT_EQ(q.dequeue()->ip.dscp, 0);
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(PriorityQueue, PerBandCapacity) {
  PriorityQueueDisc q(3, 2, ef_af_be_selector());
  EXPECT_TRUE(q.enqueue(make_packet(0)));
  EXPECT_TRUE(q.enqueue(make_packet(0)));
  EXPECT_FALSE(q.enqueue(make_packet(0)));   // BE band full
  EXPECT_TRUE(q.enqueue(make_packet(46)));   // EF band still open
  EXPECT_EQ(q.band_drops(2).packets.value(), 1u);
  EXPECT_EQ(q.band_depth(2), 2u);
  EXPECT_EQ(q.packet_count(), 3u);
}

TEST(DrrQueue, ApproximatesWeightedShares) {
  // Weights 3:1 between two bands of equal-size packets.
  DrrQueueDisc q({3, 1}, 1000,
                 class_band_selector({1, 0, 0, 0, 0, 0, 0, 0}), 500);
  for (int i = 0; i < 200; ++i) {
    q.enqueue(make_packet(10));  // AF → band 0
    q.enqueue(make_packet(0));   // BE → band 1
  }
  int af = 0;
  for (int i = 0; i < 100; ++i) {
    auto p = q.dequeue();
    ASSERT_NE(p, nullptr);
    if (p->ip.dscp == 10) ++af;
  }
  EXPECT_NEAR(af, 75, 5);  // 3:1 share
}

TEST(WfqQueue, WeightedSharesAndOrder) {
  WfqQueueDisc q({4.0, 1.0}, 1000,
                 class_band_selector({1, 0, 0, 0, 0, 0, 0, 0}));
  for (int i = 0; i < 100; ++i) {
    q.enqueue(make_packet(10));
    q.enqueue(make_packet(0));
  }
  int af = 0;
  for (int i = 0; i < 100; ++i) {
    auto p = q.dequeue();
    ASSERT_NE(p, nullptr);
    if (p->ip.dscp == 10) ++af;
  }
  EXPECT_NEAR(af, 80, 5);  // 4:1 share
}

TEST(WfqQueue, RejectsNonPositiveWeight) {
  EXPECT_THROW(WfqQueueDisc({1.0, 0.0}, 10, ef_af_be_selector()),
               std::invalid_argument);
}

TEST(LlqQueue, EfStrictButPoliced) {
  sim::Scheduler clock;
  // EF contract: 2000 B/s, 1000 B burst — two 500 B packets conform.
  LlqQueueDisc q({1.0, 3.0, 1.0}, 100, ef_af_be_selector(), 2000.0, 1000.0,
                 clock);
  EXPECT_TRUE(q.enqueue(make_packet(46)));
  EXPECT_TRUE(q.enqueue(make_packet(46)));
  EXPECT_FALSE(q.enqueue(make_packet(46)));  // out of contract → policed
  EXPECT_EQ(q.ef_policed().value(), 1u);
  q.enqueue(make_packet(0));
  q.enqueue(make_packet(10));
  // Strict priority: both EF packets first, regardless of arrival order.
  EXPECT_EQ(q.dequeue()->ip.dscp, 46);
  EXPECT_EQ(q.dequeue()->ip.dscp, 46);
  auto next = q.dequeue();
  ASSERT_NE(next, nullptr);
  EXPECT_NE(next->ip.dscp, 46);
}

TEST(LlqQueue, WfqSharesAmongNonEfBands) {
  sim::Scheduler clock;
  LlqQueueDisc q({1.0, 3.0, 1.0}, 2000, ef_af_be_selector(), 1e9, 1e9,
                 clock);
  for (int i = 0; i < 400; ++i) {
    q.enqueue(make_packet(10));  // AF band, weight 3
    q.enqueue(make_packet(0));   // BE band, weight 1
  }
  int af = 0;
  for (int i = 0; i < 200; ++i) {
    auto p = q.dequeue();
    ASSERT_NE(p, nullptr);
    if (p->ip.dscp == 10) ++af;
  }
  EXPECT_NEAR(af, 150, 10);  // 3:1
}

TEST(LlqQueue, RejectsBadConfig) {
  sim::Scheduler clock;
  EXPECT_THROW(
      LlqQueueDisc({1.0}, 10, ef_af_be_selector(), 100.0, 100.0, clock),
      std::invalid_argument);
  EXPECT_THROW(LlqQueueDisc({1.0, 0.0}, 10, ef_af_be_selector(), 100.0,
                            100.0, clock),
               std::invalid_argument);
}

TEST(RedQueue, IdlePeriodDecaysAverage) {
  sim::Scheduler clock;
  RedParams params;
  params.min_th = 5;
  params.max_th = 20;
  RedQueueDisc q(params, clock, sim::Rng(2));
  for (int i = 0; i < 200; ++i) q.enqueue(make_packet());
  const double avg_busy = q.average_queue();
  EXPECT_GT(avg_busy, 0.0);
  while (q.dequeue() != nullptr) {
  }
  // A long idle period must decay the average before the next arrival.
  clock.schedule_at(10 * sim::kSecond, [] {});
  clock.run();
  q.enqueue(make_packet());
  EXPECT_LT(q.average_queue(), avg_busy * 0.1);
}

TEST(RedQueue, NoDropsBelowMinThreshold) {
  sim::Scheduler clock;
  RedParams params;
  params.min_th = 50;
  RedQueueDisc q(params, clock, sim::Rng(1));
  for (int i = 0; i < 30; ++i) EXPECT_TRUE(q.enqueue(make_packet()));
  EXPECT_EQ(q.early_drops().value(), 0u);
}

TEST(RedQueue, EarlyDropsUnderSustainedLoad) {
  sim::Scheduler clock;
  RedParams params;
  params.capacity_packets = 500;
  params.min_th = 20;
  params.max_th = 60;
  params.max_p = 0.2;
  RedQueueDisc q(params, clock, sim::Rng(7));
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    if (q.enqueue(make_packet())) ++accepted;
  }
  EXPECT_GT(q.early_drops().value(), 0u);
  EXPECT_LT(accepted, 400);
  EXPECT_GT(q.average_queue(), 0.0);
}

TEST(WredQueue, HighPrecedenceDropsFirst) {
  sim::Scheduler clock;
  RedParams green;   // generous thresholds
  green.min_th = 60;
  green.max_th = 120;
  green.capacity_packets = 400;
  RedParams yellow = green;
  yellow.min_th = 30;
  yellow.max_th = 60;
  RedParams red = green;
  red.min_th = 5;
  red.max_th = 20;
  red.max_p = 0.5;
  WredQueueDisc q(green, yellow, red, clock, sim::Rng(3));

  int in_drops = 0;
  int out_drops = 0;
  for (int i = 0; i < 300; ++i) {
    if (!q.enqueue(make_packet(dscp_of(Phb::kAf11)))) ++in_drops;
    if (!q.enqueue(make_packet(dscp_of(Phb::kAf13)))) ++out_drops;
  }
  EXPECT_GT(out_drops, in_drops);  // out-of-profile suffers first
}

TEST(BandSelectors, MapClassesToBands) {
  const BandSelector sel = ef_af_be_selector();
  auto p_ef = make_packet(46);
  auto p_af = make_packet(18);
  auto p_be = make_packet(0);
  EXPECT_EQ(sel(*p_ef), 0u);
  EXPECT_EQ(sel(*p_af), 1u);
  EXPECT_EQ(sel(*p_be), 2u);
  // Labeled packets select on EXP regardless of inner DSCP.
  p_be->push_label(net::MplsShim{5, 5, 64});
  EXPECT_EQ(sel(*p_be), 0u);
}

TEST(MultiBandQueue, OutOfRangeBandClampsToLast) {
  // Selector that returns a band beyond the configured count.
  PriorityQueueDisc q(2, 10, [](const net::Packet&) { return 7u; });
  EXPECT_TRUE(q.enqueue(make_packet()));
  EXPECT_EQ(q.band_depth(1), 1u);
  EXPECT_EQ(q.byte_count(), 500u);
}

TEST(Shaper, DelaysBeyondBurst) {
  // 1000 B/s, 500 B burst: the first 500 B pass, then 1 B per ms.
  Shaper sh(1000.0, 500.0);
  EXPECT_EQ(sh.reserve(0, 500), 0);                 // inside the burst
  const sim::SimTime d1 = sh.reserve(0, 500);       // must wait
  EXPECT_GT(d1, 0);
  EXPECT_NEAR(sim::to_seconds(d1), 0.5, 0.01);      // backlog of 500 B
  const sim::SimTime d2 = sh.reserve(0, 500);
  EXPECT_NEAR(sim::to_seconds(d2), 1.0, 0.01);      // queued behind d1
}

TEST(Shaper, IdleRestoresBurstAllowance) {
  Shaper sh(1000.0, 500.0);
  EXPECT_EQ(sh.reserve(0, 500), 0);
  // After 2 s idle the burst allowance is back.
  EXPECT_EQ(sh.reserve(2 * sim::kSecond, 500), 0);
}

TEST(Shaper, RejectsBadRate) {
  EXPECT_THROW(Shaper(0.0, 100.0), std::invalid_argument);
}

TEST(Admission, PoolAccounting) {
  AdmissionController ac;
  ac.set_class_pool(Phb::kEf, 1e6);
  EXPECT_TRUE(ac.admit(1, Phb::kEf, 400e3));
  EXPECT_TRUE(ac.admit(2, Phb::kEf, 600e3));
  EXPECT_FALSE(ac.admit(3, Phb::kEf, 1.0));  // pool exhausted
  EXPECT_EQ(ac.rejections().value(), 1u);
  EXPECT_DOUBLE_EQ(ac.reserved(Phb::kEf), 1e6);
  EXPECT_DOUBLE_EQ(ac.available(Phb::kEf), 0.0);
  ac.release(1);
  EXPECT_TRUE(ac.admit(3, Phb::kEf, 400e3));
  EXPECT_EQ(ac.admitted_flows(), 2u);
}

TEST(Admission, UnconfiguredClassRejects) {
  AdmissionController ac;
  EXPECT_FALSE(ac.admit(1, Phb::kAf11, 1.0));
  EXPECT_EQ(ac.rejections().value(), 1u);
}

TEST(Admission, DuplicateFlowAndUnknownRelease) {
  AdmissionController ac;
  ac.set_class_pool(Phb::kEf, 1e6);
  EXPECT_TRUE(ac.admit(1, Phb::kEf, 100e3));
  EXPECT_FALSE(ac.admit(1, Phb::kEf, 100e3));  // double admit
  ac.release(99);                               // no-op
  EXPECT_DOUBLE_EQ(ac.reserved(Phb::kEf), 100e3);
}

TEST(DrrQueue, QuantumSmallerThanPacketStillServes) {
  // Credit accumulates over visits even when quantum*weight < packet.
  DrrQueueDisc q({1, 1}, 100, ef_af_be_selector(), 100);
  q.enqueue(make_packet(0, 472));  // 500 B, quantum 100
  auto p = q.dequeue();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(PriorityQueue, CanStarveLowerBands) {
  // The known strict-priority failure mode the LLQ policer exists for.
  PriorityQueueDisc q(3, 1000, ef_af_be_selector());
  for (int i = 0; i < 50; ++i) q.enqueue(make_packet(46));
  q.enqueue(make_packet(0));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(q.dequeue()->ip.dscp, 46);
  }
  EXPECT_EQ(q.dequeue()->ip.dscp, 0);  // only after EF drains completely
}

TEST(SrTcm, BucketsRefillOverTime) {
  SrTcmMeter meter(1000.0, 500.0, 500.0);
  EXPECT_EQ(meter.meter(0, 500), Color::kGreen);
  EXPECT_EQ(meter.meter(0, 500), Color::kYellow);
  // After one second the committed bucket holds 500 bytes again.
  EXPECT_EQ(meter.meter(sim::kSecond, 500), Color::kGreen);
}

TEST(SlaProbe, TracksPerClassLatencyAndLoss) {
  SlaProbe probe("t");
  probe.record_sent(Phb::kEf, 500);
  probe.record_sent(Phb::kEf, 500);
  probe.record_delivered(Phb::kEf, 1, 10 * sim::kMillisecond, 500);
  const auto& r = probe.report(Phb::kEf);
  EXPECT_EQ(r.sent_packets, 2u);
  EXPECT_EQ(r.delivered_packets, 1u);
  EXPECT_DOUBLE_EQ(r.loss_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(r.latency_s.mean(), 0.010);
  EXPECT_DOUBLE_EQ(r.goodput_bps(1.0), 4000.0);
  EXPECT_FALSE(probe.has_class(Phb::kBe));
  EXPECT_THROW(probe.report(Phb::kBe), std::out_of_range);
}

TEST(SlaProbe, JitterFromConsecutiveDeltas) {
  SlaProbe probe;
  probe.record_delivered(Phb::kEf, 1, 10 * sim::kMillisecond, 100);
  probe.record_delivered(Phb::kEf, 1, 14 * sim::kMillisecond, 100);
  probe.record_delivered(Phb::kEf, 1, 12 * sim::kMillisecond, 100);
  EXPECT_NEAR(probe.jitter_mean_s(Phb::kEf), 0.003, 1e-9);  // (4 + 2) / 2 ms
  EXPECT_EQ(probe.jitter_mean_s(Phb::kBe), 0.0);
}

TEST(SlaProbe, CsvExportMatchesData) {
  SlaProbe probe;
  probe.record_sent(Phb::kEf, 500);
  probe.record_delivered(Phb::kEf, 1, 10 * sim::kMillisecond, 500);
  const std::string csv = probe.to_csv(1.0);
  EXPECT_NE(csv.find("class,sent,delivered"), std::string::npos);
  EXPECT_NE(csv.find("EF,1,1,0.0000,10.0000"), std::string::npos);
}

// Each flow delivers through exactly one probe; a flow id in both probes
// means the partition split its sink, and the merge refuses it in every
// build type.
TEST(SlaProbe, MergeRejectsFlowSplitAcrossProbes) {
  SlaProbe a;
  SlaProbe b;
  a.record_delivered(Phb::kEf, 7, 10 * sim::kMillisecond, 100);
  b.record_delivered(Phb::kEf, 8, 10 * sim::kMillisecond, 100);
  SlaProbe merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.report(Phb::kEf).delivered_packets, 2u);

  b.record_delivered(Phb::kEf, 7, 12 * sim::kMillisecond, 100);
  SlaProbe split;
  split.merge_from(a);
  EXPECT_THROW(split.merge_from(b), std::logic_error);
}

/// The per-flow jitter fold as a map of full accumulators: one
/// stats::RunningStats of |delta delay| and one RFC 3550 EWMA per flow,
/// folded per class in ascending flow-id order.
class ReferenceJitter {
 public:
  void deliver(Phb cls, std::uint32_t flow_id, sim::SimTime latency) {
    auto [it, inserted] = flows_.try_emplace(flow_id);
    Flow& f = it->second;
    if (!inserted) {
      const sim::SimTime delta = latency > f.last ? latency - f.last
                                                  : f.last - latency;
      const double d_s = sim::to_seconds(delta);
      f.deltas.add(d_s);
      f.j_s += (d_s - f.j_s) / 16.0;
    }
    f.last = latency;
    f.cls = cls;
  }
  [[nodiscard]] double mean_s(Phb cls) const {
    stats::RunningStats out;
    for (const auto& [id, f] : flows_) {
      if (f.cls == cls) out.merge(f.deltas);
    }
    return out.mean();
  }
  [[nodiscard]] double rfc3550_s(Phb cls) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& [id, f] : flows_) {
      if (f.cls != cls || f.deltas.count() == 0) continue;
      sum += f.j_s;
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  struct Flow {
    sim::SimTime last = 0;
    double j_s = 0.0;
    stats::RunningStats deltas;
    Phb cls{};
  };
  std::map<std::uint32_t, Flow> flows_;
};

/// One probe fed every delivery, and two probes fed a random flow
/// partition of them and merged, print the same SLA table, and their
/// jitter figures equal the per-flow reference fold bit for bit.
TEST(SlaProbe, MergedProbesMatchOneProbeAndTheReferenceFold) {
  constexpr Phb kClasses[] = {Phb::kEf, Phb::kAf11, Phb::kAf21, Phb::kBe};
  std::mt19937_64 rng(20240531);
  struct Flow {
    std::uint32_t id;
    Phb cls;
    bool in_b;  // which half of the partition delivers it
  };
  // 1,000 flows with gaps in their ids, as a lane's share of ids has.
  std::vector<Flow> flows;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    flows.push_back({1 + 3 * k + static_cast<std::uint32_t>(rng() % 3),
                     kClasses[rng() % 4], (rng() & 1) != 0});
  }
  SlaProbe one("one");
  SlaProbe a("a");
  SlaProbe b("b");
  ReferenceJitter ref;
  for (int i = 0; i < 40000; ++i) {
    const Flow& f = flows[rng() % flows.size()];
    const std::size_t bytes = 100 + rng() % 1400;
    one.record_sent(f.cls, bytes);
    (f.in_b ? b : a).record_sent(f.cls, bytes);
    if (rng() % 10 == 0) continue;  // lost
    const auto latency = static_cast<sim::SimTime>(
        sim::kMillisecond + rng() % (80 * sim::kMillisecond));
    one.record_delivered(f.cls, f.id, latency, bytes);
    (f.in_b ? b : a).record_delivered(f.cls, f.id, latency, bytes);
    ref.deliver(f.cls, f.id, latency);
  }
  SlaProbe merged("merged");
  merged.merge_from(b);
  merged.merge_from(a);

  EXPECT_EQ(merged.to_csv(2.0), one.to_csv(2.0));
  EXPECT_EQ(merged.to_table(2.0).render(), one.to_table(2.0).render());
  for (const Phb cls : kClasses) {
    SCOPED_TRACE(to_string(cls));
    ASSERT_TRUE(one.has_class(cls));
    EXPECT_GT(ref.mean_s(cls), 0.0);
    EXPECT_EQ(one.jitter_mean_s(cls), ref.mean_s(cls));
    EXPECT_EQ(merged.jitter_mean_s(cls), ref.mean_s(cls));
    EXPECT_EQ(one.rfc3550_jitter_s(cls), ref.rfc3550_s(cls));
    EXPECT_EQ(merged.rfc3550_jitter_s(cls), ref.rfc3550_s(cls));
  }

  // A flow that also delivers through the other probe splits its sink.
  const Flow& moved = flows.front();
  (moved.in_b ? a : b)
      .record_delivered(moved.cls, moved.id, sim::kMillisecond, 100);
  SlaProbe split("split");
  split.merge_from(a);
  EXPECT_THROW(split.merge_from(b), std::logic_error);
}

TEST(SlaProbe, TableHasRowPerClass) {
  SlaProbe probe;
  probe.record_sent(Phb::kEf, 100);
  probe.record_sent(Phb::kBe, 100);
  const std::string out = probe.to_table(1.0).render();
  EXPECT_NE(out.find("EF"), std::string::npos);
  EXPECT_NE(out.find("BE"), std::string::npos);
}

}  // namespace
}  // namespace mvpn::qos
