// Latency-anatomy tests: the LogHistogram quantile sketch against the
// exact SampleSet on adversarial distributions, exactness of the per-hop
// delay decomposition (components must sum to the end-to-end delay for
// every delivered packet), RFC 3550 jitter, flat-cost metric snapshots,
// and the causal span reconstruction from flight-recorder events.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "backbone/fixtures.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "qos/sla.hpp"
#include "stats/log_histogram.hpp"
#include "stats/sample_set.hpp"
#include "test_flows.hpp"
#include "traffic/sink.hpp"

namespace {

using namespace mvpn;

// ---------------------------------------------------------------------------
// LogHistogram: accuracy against the exact reference.

void expect_percentiles_close(const stats::SampleSet& exact,
                              const stats::LogHistogram& sketch,
                              const char* label) {
  ASSERT_EQ(exact.count(), sketch.count()) << label;
  // Half a sub-bucket of relative error is the design bound; allow a hair
  // of float slack on top.
  const double bound = sketch.relative_error_bound() + 1e-9;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const double want = exact.percentile(p);
    const double got = sketch.percentile(p);
    ASSERT_GT(want, 0.0) << label;
    EXPECT_LE(std::abs(got - want) / want, bound)
        << label << " p" << p << ": exact " << want << " sketch " << got;
  }
  // Extremes are clamped to the observed range: never outside [min, max],
  // and within the same relative bound of the true extremes.
  EXPECT_GE(sketch.percentile(0.0), exact.min()) << label;
  EXPECT_LE(sketch.percentile(0.0), exact.min() * (1 + bound)) << label;
  EXPECT_LE(sketch.percentile(100.0), exact.max()) << label;
  EXPECT_GE(sketch.percentile(100.0), exact.max() * (1 - bound)) << label;
  EXPECT_DOUBLE_EQ(sketch.mean(), exact.mean()) << label;
}

TEST(LogHistogram, TracksExactPercentilesOnAdversarialDistributions) {
  std::mt19937_64 rng(42);
  const std::size_t n = 20'000;

  {  // Uniform over three decades.
    stats::SampleSet exact;
    stats::LogHistogram sketch;
    std::uniform_real_distribution<double> d(1e-4, 1e-1);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = d(rng);
      exact.add(x);
      sketch.add(x);
    }
    expect_percentiles_close(exact, sketch, "uniform");
  }
  {  // Heavy-tailed lognormal (latency-like).
    stats::SampleSet exact;
    stats::LogHistogram sketch;
    std::lognormal_distribution<double> d(std::log(5e-3), 1.2);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = d(rng);
      exact.add(x);
      sketch.add(x);
    }
    expect_percentiles_close(exact, sketch, "lognormal");
  }
  {  // Bimodal: a fast mode and a 100x slower mode (failover-like).
    stats::SampleSet exact;
    stats::LogHistogram sketch;
    std::normal_distribution<double> fast(1e-3, 5e-5);
    std::normal_distribution<double> slow(1e-1, 5e-3);
    for (std::size_t i = 0; i < n; ++i) {
      double x = (i % 10 == 0) ? slow(rng) : fast(rng);
      if (x <= 0) x = 1e-6;
      exact.add(x);
      sketch.add(x);
    }
    expect_percentiles_close(exact, sketch, "bimodal");
  }
  {  // Power law spanning six decades.
    stats::SampleSet exact;
    stats::LogHistogram sketch;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = 1e-6 * std::pow(10.0, 6.0 * u(rng));
      exact.add(x);
      sketch.add(x);
    }
    expect_percentiles_close(exact, sketch, "powerlaw");
  }
}

TEST(LogHistogram, BoundedMemoryRegardlessOfSampleCount) {
  stats::LogHistogram h;
  const std::size_t before = h.memory_bytes();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> d(1e-6, 1e2);
  for (int i = 0; i < 200'000; ++i) h.add(d(rng));
  EXPECT_EQ(h.memory_bytes(), before);
  EXPECT_EQ(h.count(), 200'000u);
}

TEST(LogHistogram, MergeEqualsSingleSketchOverUnion) {
  stats::LogHistogram a, b, all;
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> d(std::log(2e-3), 0.8);
  for (int i = 0; i < 5'000; ++i) {
    const double x = d(rng);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  for (double p : {1.0, 50.0, 99.0, 99.9}) {
    // Identical geometry => identical buckets => identical answers.
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p)) << "p" << p;
  }
}

TEST(LogHistogram, MergeRejectsMismatchedGeometry) {
  stats::LogHistogram a;
  stats::LogHistogram narrow(1e-6, 1e0);
  stats::LogHistogram coarse(stats::LogHistogram::kDefaultMin,
                             stats::LogHistogram::kDefaultMax, 3);
  EXPECT_FALSE(a.same_geometry(narrow));
  EXPECT_THROW(a.merge(narrow), std::invalid_argument);
  EXPECT_THROW(a.merge(coarse), std::invalid_argument);
}

TEST(LogHistogram, UnderAndOverflowBins) {
  stats::LogHistogram h(1e-6, 1e0);
  h.add(1e-9);   // below range
  h.add(5e-3);   // in range
  h.add(7.0);    // above range
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
  // Exact extremes survive via the summary accumulator...
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  // ...and out-of-range ranks resolve to them.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(99.9), 7.0);
  // NaN is quarantined in the underflow bin rather than corrupting buckets.
  h.add(std::nan(""));
  EXPECT_EQ(h.underflow(), 2u);

  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

// ---------------------------------------------------------------------------
// SampleSet: the sketch mirror keeps snapshot paths from sorting.

TEST(SampleSet, ApproxPercentilesNeverSortTheSamples) {
  stats::SampleSet s;
  for (int i = 0; i < 10'000; ++i) s.add(1e-3 + 1e-7 * (i * 37 % 997));
  EXPECT_EQ(s.sort_count(), 0u);
  // Sketch reads: no sort, still accurate.
  const double approx_p50 = s.approx().percentile(50.0);
  EXPECT_EQ(s.sort_count(), 0u);
  const double exact_p50 = s.percentile(50.0);
  EXPECT_EQ(s.sort_count(), 1u);
  EXPECT_LE(std::abs(approx_p50 - exact_p50) / exact_p50,
            s.approx().relative_error_bound() + 1e-9);
}

/// Periodic registry snapshots read the SampleSet's sketch mirror, so they
/// never sort and their cost does not follow the sample count. The sizes
/// are the ends of BM_MetricsSnapshot's sweep. The re-sorting path this
/// replaced was more than 100x slower at 10^6 samples than at 10^3; the
/// 3x bar on the best of interleaved reps leaves room for noise.
TEST(SampleSet, RegistrySnapshotsAreSortFree) {
  struct Source {
    std::size_t n = 0;
    stats::SampleSet samples;
    obs::MetricsRegistry registry;
    double best_s = 1e9;
  };
  std::array<Source, 2> sources;
  sources[0].n = 1'000;
  sources[1].n = 1'000'000;
  for (Source& src : sources) {
    for (std::size_t i = 0; i < src.n; ++i) {
      src.samples.add(1e-3 + 1e-6 * static_cast<double>(i % 977));
    }
    src.registry.add_sample_set("sla/latency", &src.samples);
  }
  for (int rep = 0; rep < 50; ++rep) {
    for (Source& src : sources) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(src.registry.snapshot().empty());
      }
      src.best_s = std::min(
          src.best_s, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }
  }
  for (const Source& src : sources) {
    EXPECT_EQ(src.samples.sort_count(), 0u)
        << "snapshots at " << src.n << " samples re-sorted the vector";
  }
  EXPECT_LT(sources[1].best_s, 3.0 * sources[0].best_s)
      << "50 snapshots: " << sources[0].best_s << " s at 10^3 samples, "
      << sources[1].best_s << " s at 10^6";
}

// ---------------------------------------------------------------------------
// RFC 3550 inter-arrival jitter.

TEST(SlaProbe, Rfc3550JitterFollowsTheEwmaRecursion) {
  qos::SlaProbe probe;
  // One flow, known one-way delays.
  const std::vector<double> delays_ms = {10.0, 12.0, 11.0, 15.0, 15.0, 9.0};
  double j = 0.0;
  bool first = true;
  double prev = 0.0;
  for (double d : delays_ms) {
    probe.record_delivered(
        qos::Phb::kEf, /*flow=*/1,
        static_cast<sim::SimTime>(d) * sim::kMillisecond, 100);
    if (!first) j += (std::abs(d - prev) * 1e-3 - j) / 16.0;
    first = false;
    prev = d;
  }
  EXPECT_NEAR(probe.rfc3550_jitter_s(qos::Phb::kEf), j, 1e-12);

  // A second, perfectly smooth flow halves the class mean.
  for (int i = 0; i < 4; ++i) {
    probe.record_delivered(qos::Phb::kEf, /*flow=*/2, 20 * sim::kMillisecond,
                           100);
  }
  EXPECT_NEAR(probe.rfc3550_jitter_s(qos::Phb::kEf), j / 2.0, 1e-12);
  // Unknown class: zero, not a throw.
  EXPECT_EQ(probe.rfc3550_jitter_s(qos::Phb::kAf41), 0.0);
}

// ---------------------------------------------------------------------------
// Per-hop decomposition: components sum exactly to end-to-end delay.

TEST(LatencyAnatomy, ComponentsSumExactlyToEndToEndDelay) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 3;
  cfg.pe_count = 2;
  cfg.seed = 7;
  backbone::MplsBackbone bb(cfg);
  obs::LatencyCollector collector;
  bb.topo.set_latency_collector(&collector);

  const vpn::VpnId v = bb.service.create_vpn("V");
  auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_b.ce);

  std::uint64_t checked = 0;
  site_b.ce->add_delivery_tap([&](const net::Packet& p, vpn::VpnId) {
    ++checked;
    const sim::SimTime e2e = bb.topo.scheduler().now() - p.created_at;
    // The tentpole invariant: integer-exact attribution, no residue.
    ASSERT_EQ(p.delay.queue + p.delay.tx + p.delay.prop + p.delay.proc, e2e)
        << "packet " << p.id;
    ASSERT_GT(e2e, 0);
    ASSERT_GE(p.delay.queue, 0);
    ASSERT_GE(p.delay.proc, 0);
    ASSERT_GT(p.delay.tx, 0);    // every delivery crossed >= 1 link
    ASSERT_GT(p.delay.prop, 0);
  });

  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  flows.add_flow(testutil::flow_between(flows, 1, *site_a.ce, "10.1.0.1",
                                        *site_b.ce, "10.2.0.1", 400e3, v));
  sink.expect_flow(1, qos::Phb::kBe, v);
  flows.run(sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);

  EXPECT_GT(checked, 0u);
  EXPECT_EQ(sink.delivered(), checked);
}

TEST(LatencyAnatomy, CollectorAggregatesMatchDeliveredTraffic) {
  backbone::Figure2Scenario fig = backbone::make_figure2_scenario(5);
  backbone::MplsBackbone& bb = *fig.backbone;
  obs::LatencyCollector collector;
  bb.topo.set_latency_collector(&collector);
  bb.start_and_converge();

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*fig.v1_site2.ce);
  fig.v1_site2.ce->add_delivery_tap([&](const net::Packet& p, vpn::VpnId) {
    collector.record_delivery(p.trace_class(), p.delay.queue, p.delay.tx,
                              p.delay.prop, p.delay.proc);
  });

  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  flows.add_flow(testutil::flow_between(flows, 1, *fig.v1_site1.ce,
                                        "10.1.0.1", *fig.v1_site2.ce,
                                        "10.2.0.1", 300e3, fig.vpn1));
  sink.expect_flow(1, qos::Phb::kBe, fig.vpn1);
  flows.run(sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);

  ASSERT_GT(sink.delivered(), 0u);
  EXPECT_EQ(collector.delivered(), sink.delivered());

  const obs::LatencyCollector::ClassDelivery* cd = collector.class_delivery(0);
  ASSERT_NE(cd, nullptr);
  EXPECT_EQ(cd->packets, sink.delivered());
  // Aggregate identity mirrors the per-packet one.
  EXPECT_EQ(cd->queue + cd->tx + cd->prop + cd->proc, cd->total);
  EXPECT_EQ(cd->e2e_s.count(), cd->packets);

  // The hop ledger saw traffic and attributes only queue/tx/prop.
  const auto hops = collector.active_hops();
  ASSERT_FALSE(hops.empty());
  sim::SimTime hop_tx = 0, hop_prop = 0;
  for (const auto* h : hops) {
    EXPECT_GT(h->packets, 0u);
    hop_tx += h->tx;
    hop_prop += h->prop;
  }
  // Every delivered packet's tx/prop came from some hop (hops also carry
  // control traffic and in-flight packets, so the ledger is a superset).
  EXPECT_GE(hop_tx, cd->tx);
  EXPECT_GE(hop_prop, cd->prop);

  // Tables render without throwing and carry the class row.
  const std::string cls_tbl = collector.class_table().render();
  EXPECT_NE(cls_tbl.find("cls0"), std::string::npos);
  EXPECT_FALSE(collector.hop_table().render().empty());
}

// ---------------------------------------------------------------------------
// Span reconstruction from raw trace events.

TEST(Spans, PacketLifecycleFoldsIntoHops) {
  using obs::EventType;
  std::vector<obs::TraceEvent> evs;
  // Packet 42: queued at node 1 on link 5, then wire; fast-path at node 2.
  evs.push_back({.at = 100, .packet_id = 42, .node = 1, .a = 5,
                 .type = EventType::kEnqueue, .cls = 5, .aux = 2});
  evs.push_back({.at = 180, .packet_id = 42, .node = 1, .a = 5,
                 .type = EventType::kDequeue});
  evs.push_back({.at = 180, .packet_id = 42, .node = 1, .a = 5,
                 .type = EventType::kLinkTx});
  evs.push_back({.at = 250, .packet_id = 42, .node = 2, .a = 5,
                 .type = EventType::kDeliver});
  evs.push_back({.at = 260, .packet_id = 42, .node = 2, .a = 9,
                 .type = EventType::kLinkTx});
  evs.push_back({.at = 300, .packet_id = 42, .node = 3, .a = 9,
                 .type = EventType::kDeliver});
  evs.push_back({.at = 301, .packet_id = 42, .node = 3, .a = 7,
                 .type = EventType::kLocalDeliver});
  // Packet 43 dies in a queue.
  evs.push_back({.at = 150, .packet_id = 43, .node = 1, .a = 5,
                 .type = EventType::kDrop,
                 .reason = obs::DropReason::kTailDrop});

  const obs::SpanAnalysis out = obs::analyze_spans(evs);
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.completed_packets(), 1u);

  const obs::PacketSpan& p = out.packets[0];
  EXPECT_EQ(p.packet_id, 42u);
  EXPECT_EQ(p.cls, 5);
  EXPECT_TRUE(p.completed);
  EXPECT_FALSE(p.dropped);
  ASSERT_EQ(p.hops.size(), 2u);
  EXPECT_TRUE(p.hops[0].queued());
  EXPECT_EQ(p.hops[0].queue_wait(), 80);
  EXPECT_EQ(p.hops[0].band, 2);
  EXPECT_TRUE(p.hops[0].on_wire());
  EXPECT_EQ(p.hops[0].wire_time(), 70);
  EXPECT_FALSE(p.hops[1].queued());  // fast path: tx without enqueue
  EXPECT_TRUE(p.hops[1].on_wire());
  EXPECT_EQ(p.first_at, 100);
  EXPECT_EQ(p.last_at, 301);

  const obs::PacketSpan& q = out.packets[1];
  EXPECT_TRUE(q.dropped);
  EXPECT_EQ(q.drop_reason, obs::DropReason::kTailDrop);
  EXPECT_FALSE(q.completed);
}

TEST(Spans, ControlPlaneTimelines) {
  using obs::EventType;
  std::vector<obs::TraceEvent> evs;
  // LDP: announce by owner 9, three mappings (one predates the announce).
  evs.push_back({.at = 50, .node = 9, .a = 3, .b = 9,
                 .type = EventType::kLdpAnnounce});
  evs.push_back({.at = 40, .node = 4, .a = 17, .b = 7,
                 .type = EventType::kLdpMapping});  // unanchored owner
  evs.push_back({.at = 80, .node = 4, .a = 18, .b = 9,
                 .type = EventType::kLdpMapping});
  evs.push_back({.at = 120, .node = 5, .a = 19, .b = 9,
                 .type = EventType::kLdpMapping});
  // LSP 1: signal -> up, then a reroute episode that restores.
  evs.push_back({.at = 200, .a = 1, .type = EventType::kLspSignal});
  evs.push_back({.at = 260, .a = 1, .type = EventType::kLspUp});
  evs.push_back({.at = 500, .a = 1, .b = 12,
                 .type = EventType::kLspReroute});
  evs.push_back({.at = 590, .a = 1, .type = EventType::kLspUp});
  // LSP 2: reroute that fails (explicit route).
  evs.push_back({.at = 300, .a = 2, .type = EventType::kLspSignal});
  evs.push_back({.at = 350, .a = 2, .type = EventType::kLspUp});
  evs.push_back({.at = 600, .a = 2, .b = 12,
                 .type = EventType::kLspReroute});
  evs.push_back({.at = 640, .a = 2, .type = EventType::kLspDown});

  const obs::SpanAnalysis out = obs::analyze_spans(evs);
  EXPECT_EQ(out.ldp_mappings, 3u);
  EXPECT_EQ(out.ldp_unanchored, 1u);
  EXPECT_EQ(out.ldp_mapping_s.count(), 2u);
  EXPECT_DOUBLE_EQ(out.ldp_mapping_s.min(), sim::to_seconds(30));
  EXPECT_DOUBLE_EQ(out.ldp_mapping_s.max(), sim::to_seconds(70));

  ASSERT_EQ(out.lsps.size(), 2u);
  const obs::LspTimeline& l1 = out.lsps[0];
  EXPECT_EQ(l1.setup_latency(), 60);
  ASSERT_EQ(l1.episodes.size(), 1u);
  EXPECT_EQ(l1.episodes[0].restored_at - l1.episodes[0].reroute_at, 90);
  EXPECT_EQ(l1.episodes[0].failed_link, 12u);

  const obs::LspTimeline& l2 = out.lsps[1];
  ASSERT_EQ(l2.episodes.size(), 1u);
  EXPECT_EQ(l2.episodes[0].failed_at, 640);
  EXPECT_EQ(l2.episodes[0].restored_at, obs::kNoTime);

  EXPECT_EQ(out.reroutes, 2u);
  EXPECT_EQ(out.reroutes_failed, 1u);
  EXPECT_EQ(out.lsp_setup_s.count(), 2u);
  EXPECT_EQ(out.reroute_convergence_s.count(), 1u);
  EXPECT_DOUBLE_EQ(out.reroute_convergence_s.max(), sim::to_seconds(90));

  // Reports render and carry every stage row.
  const std::string tbl = obs::control_plane_table(out).render();
  EXPECT_NE(tbl.find("ldp mapping"), std::string::npos);
  EXPECT_NE(tbl.find("reroute convergence"), std::string::npos);
}

TEST(Spans, EndToEndAgainstLiveSignaling) {
  backbone::DiamondScenario d = backbone::make_diamond_scenario(10e6, 3);
  backbone::MplsBackbone& bb = *d.backbone;
  bb.topo.recorder().set_capacity(1u << 18);
  bb.topo.recorder().enable(
      static_cast<std::uint32_t>(obs::Category::kSignaling));

  const vpn::VpnId v = bb.service.create_vpn("A");
  bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  mpls::TeLspConfig cfg;
  cfg.head = bb.pe(0).id();
  cfg.tail = bb.pe(1).id();
  cfg.bandwidth_bps = 1e6;
  const mpls::LspId lsp = bb.rsvp.signal(cfg);
  bb.topo.scheduler().run();

  bb.topo.link(d.hot_link).set_up(false);
  bb.igp.notify_link_change(d.hot_link);
  bb.rsvp.notify_link_failure(d.hot_link);
  bb.topo.scheduler().run();

  ASSERT_EQ(bb.rsvp.lsp(lsp).state, mpls::RsvpTe::LspState::kUp);
  const obs::SpanAnalysis out = obs::analyze_spans(bb.topo.recorder());
  // LDP converged with at least one mapping measured from the announce.
  EXPECT_GT(out.ldp_mapping_s.count(), 0u);
  EXPECT_EQ(out.ldp_unanchored, 0u);
  // Exactly our LSP: signaled, set up, rerouted once, restored.
  ASSERT_EQ(out.lsps.size(), 1u);
  EXPECT_GT(out.lsps[0].setup_latency(), 0);
  EXPECT_EQ(out.reroutes, 1u);
  EXPECT_EQ(out.reroutes_failed, 0u);
  ASSERT_EQ(out.reroute_convergence_s.count(), 1u);
  // Re-signaling over the detour costs at least the setup RTT.
  EXPECT_GE(out.reroute_convergence_s.min(),
            sim::to_seconds(out.lsps[0].setup_latency()));
}

}  // namespace
