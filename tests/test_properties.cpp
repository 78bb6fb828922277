#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>
#include <vector>

#include "backbone/fixtures.hpp"
#include "ip/dir24_fib.hpp"
#include "ip/prefix_trie.hpp"
#include "ipsec/esp.hpp"
#include "net/topology.hpp"
#include "qos/meter.hpp"
#include "qos/queues.hpp"
#include "qos/token_bucket.hpp"
#include "sim/rng.hpp"
#include "test_flows.hpp"
#include "traffic/sink.hpp"

namespace mvpn {
namespace {

// --- E1 invariant: the paper's N(N-1)/2 formula ----------------------------

class OverlayScaling : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OverlayScaling, VcCountMatchesClosedForm) {
  const std::size_t n = GetParam();
  backbone::OverlayBackbone bb(4, 7);
  const vpn::VpnId v = bb.service.create_vpn("V");
  for (std::size_t i = 0; i < n; ++i) {
    auto& ce = bb.add_ce(i % 4, "CE" + std::to_string(i));
    const auto prefix = ip::Prefix(
        ip::Ipv4Address(10, std::uint8_t(1 + i / 250), std::uint8_t(i % 250),
                        0),
        24);
    bb.service.add_site(v, ce, prefix);
  }
  bb.service.provision();
  EXPECT_EQ(bb.service.pvc_count(), n * (n - 1) / 2);
  // Every circuit consumes switching state at both endpoints at least.
  EXPECT_GE(bb.service.total_switching_entries(), n * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(SiteCounts, OverlayScaling,
                         ::testing::Values(2, 4, 10, 20));

class MplsScaling : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MplsScaling, StateGrowsLinearlyInSites) {
  const std::size_t n = GetParam();
  backbone::BackboneConfig cfg;
  cfg.p_count = 3;
  cfg.pe_count = std::min<std::size_t>(n, 6);
  cfg.seed = 7;
  backbone::MplsBackbone bb(cfg);
  const vpn::VpnId v = bb.service.create_vpn("V");
  for (std::size_t i = 0; i < n; ++i) {
    bb.add_site(v, i % cfg.pe_count,
                ip::Prefix(ip::Ipv4Address(10, std::uint8_t(1 + i / 250),
                                           std::uint8_t(i % 250), 0),
                           24));
  }
  bb.start_and_converge();
  // Linear state: every PE holds one route per site in its VRF (its own
  // sites connected, the rest imported), NOT one per site pair.
  EXPECT_EQ(bb.service.total_vrf_routes(), n * cfg.pe_count);
  // BGP carries exactly one NLRI per site to every PE.
  EXPECT_EQ(bb.service.total_bgp_loc_rib(), n * cfg.pe_count);
  // VRF count: one per (PE with attached sites) per VPN.
  EXPECT_LE(bb.service.total_vrf_count(), cfg.pe_count);
}

INSTANTIATE_TEST_SUITE_P(SiteCounts, MplsScaling,
                         ::testing::Values(6, 12, 24));

// --- LPM equivalence over random tables -------------------------------------

class FibEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibEquivalence, TrieAndDir24AgreeEverywhere) {
  sim::Rng rng(GetParam());
  ip::PrefixTrie<std::uint16_t> trie;
  std::vector<std::pair<ip::Prefix, std::uint16_t>> routes;
  for (std::uint16_t i = 0; i < 300; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(4, 32));
    const ip::Prefix p(ip::Ipv4Address(static_cast<std::uint32_t>(
                           rng.next_u64())),
                       len);
    routes.emplace_back(p, i);
    trie.insert(p, i);
  }
  ip::Dir24Fib fib;
  fib.build(routes);
  for (int i = 0; i < 5000; ++i) {
    const ip::Ipv4Address a(static_cast<std::uint32_t>(rng.next_u64()));
    const std::uint16_t* expect = trie.longest_match(a);
    const auto got = fib.lookup(a);
    ASSERT_EQ(got.has_value(), expect != nullptr) << a.to_string();
    if (expect != nullptr) ASSERT_EQ(*got, *expect) << a.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibEquivalence,
                         ::testing::Values(1, 17, 99, 2024));

// --- WFQ share property ------------------------------------------------------

class WfqShares
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WfqShares, ServiceMatchesWeights) {
  const auto [w0, w1] = GetParam();
  qos::WfqQueueDisc q({w0, w1}, 4000,
                      qos::class_band_selector({1, 0, 0, 0, 0, 0, 0, 0}));
  auto mk = [&](std::uint8_t dscp) {
    auto p = net::make_standalone_packet();
    p->ip.dscp = dscp;
    p->payload_bytes = 472;
    return p;
  };
  for (int i = 0; i < 1000; ++i) {
    q.enqueue(mk(10));  // AF → band 0
    q.enqueue(mk(0));   // BE → band 1
  }
  int band0 = 0;
  const int draws = 500;
  for (int i = 0; i < draws; ++i) {
    auto p = q.dequeue();
    ASSERT_NE(p, nullptr);
    if (p->ip.dscp == 10) ++band0;
  }
  const double expected = w0 / (w0 + w1);
  EXPECT_NEAR(static_cast<double>(band0) / draws, expected, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Weights, WfqShares,
                         ::testing::Values(std::make_pair(1.0, 1.0),
                                           std::make_pair(2.0, 1.0),
                                           std::make_pair(3.0, 1.0),
                                           std::make_pair(9.0, 1.0)));

// --- Isolation fuzz ----------------------------------------------------------

class IsolationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsolationFuzz, RandomVpnMeshNeverLeaks) {
  const std::uint64_t seed = GetParam();
  backbone::BackboneConfig cfg;
  cfg.p_count = 2;
  cfg.pe_count = 3;
  cfg.seed = seed;
  backbone::MplsBackbone bb(cfg);
  sim::Rng rng(seed * 31 + 1);

  constexpr std::size_t kVpns = 3;
  constexpr std::size_t kSitesPerVpn = 4;
  std::vector<vpn::VpnId> vpns;
  std::vector<std::vector<backbone::MplsBackbone::Site>> sites(kVpns);
  for (std::size_t v = 0; v < kVpns; ++v) {
    vpns.push_back(bb.service.create_vpn("V" + std::to_string(v)));
    for (std::size_t i = 0; i < kSitesPerVpn; ++i) {
      // Deliberately identical address plans in every VPN.
      const auto prefix =
          ip::Prefix(ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 0), 16);
      const auto pe = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cfg.pe_count) - 1));
      sites[v].push_back(bb.add_site(vpns[v], pe, prefix));
    }
  }
  bb.start_and_converge();

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  for (auto& vs : sites) {
    for (auto& s : vs) sink.bind(*s.ce);
  }

  traffic::FlowSet flows(bb.topo.scheduler(), &probe, bb.topo.seed());
  traffic::FlowSet::FlowDef f;
  f.kind = traffic::FlowSet::Kind::kPoisson;
  f.rate_bps = 50e3;
  for (std::size_t v = 0; v < kVpns; ++v) {
    for (int k = 0; k < 8; ++k) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, 3));
      auto j = static_cast<std::size_t>(rng.uniform_int(0, 3));
      if (j == i) j = (j + 1) % kSitesPerVpn;
      ++f.flow_id;
      f.from_site = flows.add_site(
          *sites[v][i].ce, ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 1));
      f.to_site = flows.add_site(
          *sites[v][j].ce,
          ip::Ipv4Address(10, std::uint8_t(j + 1), 0,
                          std::uint8_t(rng.uniform_int(1, 200))));
      f.vpn = vpns[v];
      flows.add_flow(f);
      sink.expect_flow(f.flow_id, qos::Phb::kBe, vpns[v]);
    }
  }
  flows.run(sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);

  EXPECT_GT(sink.delivered(), 0u);
  EXPECT_EQ(sink.leaks(), 0u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsolationFuzz,
                         ::testing::Values(3, 5, 8, 13, 21));

// --- Invariants on random topologies ----------------------------------------

class RandomTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopology, AnyToAnyReachabilityAndIsolationHold) {
  const std::uint64_t seed = GetParam();
  sim::Rng shape_rng(seed * 7 + 3);
  const auto p_count =
      static_cast<std::size_t>(shape_rng.uniform_int(2, 6));
  const auto pe_count =
      static_cast<std::size_t>(shape_rng.uniform_int(2, 5));
  auto bb = backbone::make_random_backbone(p_count, pe_count, 0.3, seed);

  constexpr std::size_t kVpns = 2;
  std::vector<vpn::VpnId> vpns;
  std::vector<std::vector<backbone::MplsBackbone::Site>> sites(kVpns);
  for (std::size_t v = 0; v < kVpns; ++v) {
    vpns.push_back(bb->service.create_vpn("V" + std::to_string(v)));
    for (std::size_t i = 0; i < 3; ++i) {
      sites[v].push_back(bb->add_site(
          vpns[v],
          static_cast<std::size_t>(shape_rng.uniform_int(
              0, static_cast<std::int64_t>(pe_count) - 1)),
          ip::Prefix(ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 0), 16)));
    }
  }
  bb->start_and_converge();
  EXPECT_TRUE(bb->igp.synchronized());

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb->topo.scheduler());
  for (auto& vs : sites) {
    for (auto& s : vs) sink.bind(*s.ce);
  }
  traffic::FlowSet flows(bb->topo.scheduler(), &probe, bb->topo.seed());
  traffic::FlowSet::FlowDef f;
  f.rate_bps = 50e3;
  for (std::size_t v = 0; v < kVpns; ++v) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        if (i == j) continue;
        ++f.flow_id;
        f.from_site = flows.add_site(
            *sites[v][i].ce, ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 1));
        f.to_site = flows.add_site(
            *sites[v][j].ce, ip::Ipv4Address(10, std::uint8_t(j + 1), 0, 1));
        f.vpn = vpns[v];
        flows.add_flow(f);
        sink.expect_flow(f.flow_id, qos::Phb::kBe, vpns[v]);
      }
    }
  }
  flows.run(sim::kSecond);
  bb->topo.run_until(3 * sim::kSecond);

  EXPECT_EQ(sink.delivered(), flows.packets_sent())
      << "p=" << p_count << " pe=" << pe_count;
  EXPECT_EQ(sink.leaks(), 0u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- BGP mode equivalence: route reflection must not change outcomes --------

class BgpModeEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BgpModeEquivalence, LocRibsIdenticalUnderFullMeshAndRr) {
  const std::size_t sites = GetParam();
  auto build = [&](routing::Bgp::Mode mode) {
    backbone::BackboneConfig cfg;
    cfg.p_count = 2;
    cfg.pe_count = 4;
    cfg.bgp_mode = mode;
    cfg.route_reflector_count =
        mode == routing::Bgp::Mode::kRouteReflector ? 1 : 0;
    cfg.seed = 5;
    auto bb = std::make_unique<backbone::MplsBackbone>(cfg);
    const vpn::VpnId v = bb->service.create_vpn("V");
    for (std::size_t i = 0; i < sites; ++i) {
      bb->add_site(v, i % 4,
                   ip::Prefix(ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 0),
                              16));
    }
    bb->start_and_converge();
    return bb;
  };
  auto fm = build(routing::Bgp::Mode::kFullMesh);
  auto rr = build(routing::Bgp::Mode::kRouteReflector);

  // Same sites → every PE must hold identical best paths either way.
  for (std::size_t pe = 0; pe < 4; ++pe) {
    const auto fm_rib = fm->bgp.loc_rib(fm->pes()[pe]->id());
    const auto rr_rib = rr->bgp.loc_rib(rr->pes()[pe]->id());
    ASSERT_EQ(fm_rib.size(), rr_rib.size());
    for (std::size_t i = 0; i < fm_rib.size(); ++i) {
      EXPECT_EQ(fm_rib[i].prefix, rr_rib[i].prefix);
      EXPECT_EQ(fm_rib[i].vpn_label, rr_rib[i].vpn_label);
      EXPECT_EQ(fm_rib[i].originator, rr_rib[i].originator);
    }
  }
  // And the data-plane state must agree too.
  EXPECT_EQ(fm->service.total_vrf_routes(), rr->service.total_vrf_routes());
}

INSTANTIATE_TEST_SUITE_P(SiteCounts, BgpModeEquivalence,
                         ::testing::Values(4, 8, 16));

// --- Control-plane message growth is linear in sites -------------------------

TEST(ScalingShape, BgpMessagesLinearInSites) {
  struct Counts {
    std::uint64_t nlri = 0;      ///< route advertisements, one per peer
    std::uint64_t messages = 0;  ///< packed UPDATE messages carrying them
  };
  auto counts_for = [](std::size_t sites) {
    backbone::BackboneConfig cfg;
    cfg.p_count = 2;
    cfg.pe_count = 4;
    cfg.seed = 5;
    backbone::MplsBackbone bb(cfg);
    const vpn::VpnId v = bb.service.create_vpn("V");
    for (std::size_t i = 0; i < sites; ++i) {
      bb.add_site(v, i % 4,
                  ip::Prefix(ip::Ipv4Address(10, std::uint8_t(1 + i / 200),
                                             std::uint8_t(i % 200), 0),
                             24));
    }
    bb.start_and_converge();
    return Counts{bb.bgp.rib_out().nlri_packed(),
                  bb.cp.message_count("bgp.update")};
  };
  // NLRI per (route, peer) is the linearity law: doubling sites doubles
  // them (within rounding) — linear, not quadratic.
  const Counts c8 = counts_for(8);
  const Counts c16 = counts_for(16);
  const Counts c32 = counts_for(32);
  EXPECT_NEAR(static_cast<double>(c16.nlri) / static_cast<double>(c8.nlri),
              2.0, 0.2);
  EXPECT_NEAR(static_cast<double>(c32.nlri) / static_cast<double>(c16.nlri),
              2.0, 0.2);
  // Update packing amortizes same-instant NLRI into shared messages, so
  // messages must stay well below one per NLRI at equal scale.
  EXPECT_LE(c32.messages * 2, c32.nlri);
}

// --- Determinism --------------------------------------------------------------

struct RunOutcome {
  std::uint64_t delivered = 0;
  std::uint64_t messages = 0;
  sim::SimTime end_time = 0;
  std::uint64_t executed_events = 0;
  bool operator==(const RunOutcome&) const = default;
};

RunOutcome run_once(std::uint64_t seed) {
  backbone::Figure2Scenario s = backbone::make_figure2_scenario(seed);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  traffic::FlowSet flows(s.backbone->topo.scheduler(), &probe,
                         s.backbone->topo.seed());
  traffic::FlowSet::FlowDef f = testutil::flow_between(
      flows, 1, *s.v1_site1.ce, "10.1.0.1", *s.v1_site2.ce, "10.2.0.1", 300e3,
      s.vpn1);
  f.kind = traffic::FlowSet::Kind::kPoisson;
  flows.add_flow(f);
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  flows.run(sim::kSecond);
  s.backbone->topo.run_until(2 * sim::kSecond);
  return RunOutcome{sink.delivered(), s.backbone->cp.total_messages(),
                    s.backbone->topo.scheduler().now(),
                    s.backbone->topo.scheduler().executed_count()};
}

TEST(Determinism, SameSeedSameOutcome) {
  const RunOutcome a = run_once(77);
  const RunOutcome b = run_once(77);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedDifferentArrivals) {
  const RunOutcome a = run_once(77);
  const RunOutcome c = run_once(78);
  // Control-plane message counts are topology-determined and equal; the
  // Poisson arrival count should differ with overwhelming probability.
  EXPECT_EQ(a.messages, c.messages);
  EXPECT_NE(a.delivered, c.delivered);
}

// --- Zero-allocation steady state ---------------------------------------------

// Once the pools are warm, forwarding traffic must not grow the packet pool
// or the scheduler's event-node pool: every per-packet allocation has been
// replaced by recycling.
TEST(HotPath, SteadyStateZeroAllocation) {
  backbone::Figure2Scenario s = backbone::make_figure2_scenario(11);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  traffic::FlowSet flows(s.backbone->topo.scheduler(), &probe,
                         s.backbone->topo.seed());
  flows.add_flow(testutil::flow_between(flows, 1, *s.v1_site1.ce, "10.1.0.1",
                                        *s.v1_site2.ce, "10.2.0.1", 500e3,
                                        s.vpn1));
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  flows.run(3 * sim::kSecond);

  // Warm-up: first packets grow the pools to working-set size.
  s.backbone->topo.run_until(sim::kSecond / 2);
  const net::PacketPool& pool = s.backbone->topo.packet_factory().pool();
  const std::uint64_t allocated_warm = pool.allocated();
  const std::uint64_t reused_warm = pool.reused();
  const std::size_t nodes_warm =
      s.backbone->topo.scheduler().node_pool_size();
  const std::uint64_t delivered_warm = sink.delivered();

  s.backbone->topo.run_until(3 * sim::kSecond);
  EXPECT_GT(sink.delivered(), delivered_warm);  // traffic kept flowing
  EXPECT_GT(pool.reused(), reused_warm);        // served from the freelist
  EXPECT_EQ(pool.allocated(), allocated_warm);  // ...with zero new packets
  EXPECT_EQ(s.backbone->topo.scheduler().node_pool_size(), nodes_warm);
}

// --- M/D/1 queueing: Pollaczek-Khinchine --------------------------------------

/// Records the egress-queue wait of every packet it receives.
class QueueWaitSink : public net::Node {
 public:
  using Node::Node;
  void receive(net::PacketPtr p, ip::IfIndex) override {
    waits.push_back(p->delay.queue);
  }
  std::vector<sim::SimTime> waits;
};

/// Mean `DelayAnatomy::queue` of Poisson arrivals of 500 B packets at load
/// `rho` into one 1 Mb/s drop-tail link (4 ms deterministic service) whose
/// buffer never fills, over packets [warmup, n) of one seeded run.
double md1_mean_wait_s(double rho, std::uint64_t seed, int n, int warmup) {
  net::Topology topo(seed);
  auto& src = topo.add_node<QueueWaitSink>("src");
  auto& dst = topo.add_node<QueueWaitSink>("dst");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 1e6;
  cfg.prop_delay = 0;
  cfg.queue_factory = net::DropTailQueue::factory(std::size_t{1} << 20);
  topo.connect(src.id(), dst.id(), cfg);

  constexpr double kServiceS = 500 * 8 / 1e6;
  sim::Rng rng(seed);
  sim::SimTime at = 0;
  for (int i = 0; i < n; ++i) {
    at += sim::from_seconds(rng.exponential(kServiceS / rho));
    topo.scheduler().schedule_at(at, [&topo, &src] {
      net::PacketPtr p = topo.packet_factory().make();
      p->payload_bytes = 472;  // 500 B on the wire
      p->created_at = topo.scheduler().now();
      src.send(std::move(p), 0);
    });
  }
  topo.scheduler().run();
  EXPECT_EQ(dst.waits.size(), static_cast<std::size_t>(n));  // no drops
  double sum = 0;
  for (std::size_t i = static_cast<std::size_t>(warmup); i < dst.waits.size();
       ++i) {
    sum += sim::to_seconds(dst.waits[i]);
  }
  return sum / static_cast<double>(n - warmup);
}

class Md1Wait : public ::testing::TestWithParam<double> {};

// The mean queueing delay of an M/D/1 queue is W = rho / (2 mu (1 - rho)).
// Each seed's mean is one sample (waits within a run are correlated, the
// runs are independent); the mean over seeds must lie within the 99%
// Student-t interval of W.
TEST_P(Md1Wait, MeanQueueDelayMatchesPollaczekKhinchine) {
  const double rho = GetParam();
  constexpr double kMu = 1e6 / (500 * 8);  // packets per second
  constexpr int kSeeds = 10;
  constexpr double kT99 = 3.250;  // two-sided 99%, 9 degrees of freedom
  std::vector<double> means;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    means.push_back(md1_mean_wait_s(rho, seed, 20000, 2000));
  }
  double mean = 0;
  for (const double m : means) mean += m;
  mean /= kSeeds;
  double var = 0;
  for (const double m : means) var += (m - mean) * (m - mean);
  const double se = std::sqrt(var / (kSeeds - 1) / kSeeds);
  const double expected = rho / (2 * kMu * (1 - rho));
  std::printf("rho=%.2f  W_pk=%.4f ms  mean=%.4f ms  se=%.4f ms  z=%+.2f\n",
              rho, expected * 1e3, mean * 1e3, se * 1e3,
              (mean - expected) / se);
  EXPECT_NEAR(mean, expected, kT99 * se) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Load, Md1Wait,
                         ::testing::Values(0.3, 0.5, 0.7, 0.85));

// --- Replay window property ----------------------------------------------------

class ReplayFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayFuzz, AcceptsExactlyFreshInWindowSequences) {
  sim::Rng rng(GetParam());
  ipsec::ReplayWindow window(64);
  std::set<std::uint32_t> accepted;
  std::uint32_t top = 0;
  for (int i = 0; i < 5000; ++i) {
    // Random walk biased forward, with frequent duplicates.
    const auto seq = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(top) +
                                      rng.uniform_int(-70, 8)));
    const bool fresh = accepted.insert(seq).second;
    const bool in_window = seq + 64 > top;
    const bool got = window.check_and_update(seq);
    if (got) {
      EXPECT_TRUE(fresh) << "accepted replay of " << seq;
      EXPECT_TRUE(in_window) << "accepted ancient " << seq;
    } else if (fresh && in_window && seq > top) {
      ADD_FAILURE() << "rejected fresh forward seq " << seq;
    }
    top = std::max(top, seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayFuzz, ::testing::Values(1, 2, 3));

// --- Token bucket long-run rate -------------------------------------------------

class BucketRates : public ::testing::TestWithParam<double> {};

TEST_P(BucketRates, LongRunThroughputBoundedByCir) {
  const double cir = GetParam();  // bytes/s
  qos::TokenBucket tb(cir, 3000.0);
  sim::Rng rng(5);
  double accepted_bytes = 0;
  sim::SimTime now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += sim::from_seconds(rng.exponential(0.0005));
    const std::size_t bytes = 200 + static_cast<std::size_t>(
                                        rng.uniform_int(0, 1300));
    if (tb.consume(now, bytes)) accepted_bytes += static_cast<double>(bytes);
  }
  const double duration = sim::to_seconds(now);
  const double rate = accepted_bytes / duration;
  EXPECT_LE(rate, cir * 1.05 + 3000.0 / duration);  // CIR + burst amortized
  EXPECT_GT(rate, cir * 0.5);  // and the bucket is not spuriously starving
}

INSTANTIATE_TEST_SUITE_P(Cirs, BucketRates,
                         ::testing::Values(50e3, 200e3, 1e6));

// --- Meters: conforming bytes over any interval ---------------------------

/// Largest excess, over every window [t_i, t_j] between two arrivals, of
/// the bytes counted at arrivals i..j above CBS + CIR·(t_j − t_i).
/// O(n): the best window ending at j starts where CIR·t_i − S_{i−1} peaks.
double worst_window_excess(const std::vector<sim::SimTime>& at,
                           const std::vector<std::uint64_t>& counted,
                           double cir, double cbs) {
  long double before_i = 0;  // S_{i-1}: bytes counted before arrival i
  long double best_start = -1e300L;
  long double worst = -1e300L;
  for (std::size_t j = 0; j < at.size(); ++j) {
    const long double t = static_cast<long double>(at[j]) / 1e9L;
    best_start = std::max(best_start, cir * t - before_i);
    before_i += static_cast<long double>(counted[j]);
    // S_j - S_{i-1} - CIR (t_j - t_i) - CBS, maximised over i <= j.
    worst = std::max(worst, before_i - cir * t + best_start - cbs);
  }
  return static_cast<double>(worst);
}

class MeterBound
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MeterBound, ConformingBytesWithinCbsPlusCirTimesT) {
  // Seeded exponential arrivals at about the committed rate, so the bucket
  // both fills during gaps and drains in bursts. Token-bucket accepted
  // bytes and srTCM green bytes must satisfy the (CBS, CIR) arrival curve
  // on every window, up to floating-point slack only.
  const auto [cir, cbs] = GetParam();
  constexpr double kSlackBytes = 1e-6;
  qos::TokenBucket tb(cir, cbs);
  qos::SrTcmMeter meter(cir, cbs, cbs);
  sim::Rng rng(7 + static_cast<std::uint64_t>(cir + cbs));
  std::vector<sim::SimTime> at;
  std::vector<std::uint64_t> accepted;
  std::vector<std::uint64_t> green;
  sim::SimTime now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += sim::from_seconds(rng.exponential(850.0 / cir));
    const auto bytes =
        static_cast<std::size_t>(200 + rng.uniform_int(0, 1300));
    at.push_back(now);
    accepted.push_back(tb.consume(now, bytes) ? bytes : 0);
    green.push_back(meter.meter(now, bytes) == qos::Color::kGreen ? bytes : 0);
  }
  EXPECT_LE(worst_window_excess(at, accepted, cir, cbs), kSlackBytes)
      << "token bucket cir=" << cir << " cbs=" << cbs;
  EXPECT_LE(worst_window_excess(at, green, cir, cbs), kSlackBytes)
      << "srTCM green cir=" << cir << " cbs=" << cbs;
  // The bound is tight enough to matter: some packets were refused.
  EXPECT_LT(std::count(accepted.begin(), accepted.end(), 0u), 20000);
  EXPECT_GT(std::count(accepted.begin(), accepted.end(), 0u), 0);
}

INSTANTIATE_TEST_SUITE_P(
    CirCbs, MeterBound,
    ::testing::Combine(::testing::Values(50e3, 200e3, 1e6),
                       ::testing::Values(1500.0, 3000.0, 20000.0)));

// --- Shaper: released bytes over any interval -------------------------------

/// Largest excess, over every window [r_i, r_j] between two releases (in
/// release order), of the bytes released at i..j above
/// burst + rate·(r_j − r_i) + L_j + rate·1 ns·(j − i + 1). The last term
/// covers Shaper::reserve truncating each transmit time to whole
/// nanoseconds. O(n), as worst_window_excess.
double worst_release_excess(const std::vector<sim::SimTime>& release,
                            const std::vector<std::uint64_t>& bytes,
                            double rate, double burst) {
  const long double slack = rate * 1e-9L;
  long double before_i = 0;  // bytes released before i, less their slack
  long double best_start = -1e300L;
  long double worst = -1e300L;
  for (std::size_t j = 0; j < release.size(); ++j) {
    const long double t = static_cast<long double>(release[j]) / 1e9L;
    best_start = std::max(best_start, rate * t - before_i);
    before_i += static_cast<long double>(bytes[j]) - slack;
    worst = std::max(worst, before_i - static_cast<long double>(bytes[j]) -
                                rate * t + best_start - burst);
  }
  return static_cast<double>(worst);
}

class ShaperBound
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ShaperBound, ReleasedBytesWithinBurstPlusRateTimesT) {
  // MeterBound's arrivals, shaped instead of metered: each packet leaves
  // at now + reserve(now, bytes). A shaper that holds the (burst, rate)
  // envelope releases, over any window, at most burst + rate·T plus the
  // packet that ends the window.
  const auto [rate, burst] = GetParam();
  constexpr double kSlackBytes = 1e-6;
  qos::Shaper shaper(rate, burst);
  sim::Rng rng(7 + static_cast<std::uint64_t>(rate + burst));
  std::vector<sim::SimTime> release;
  std::vector<std::uint64_t> bytes;
  std::size_t held = 0;
  sim::SimTime now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += sim::from_seconds(rng.exponential(850.0 / rate));
    const auto len = static_cast<std::size_t>(200 + rng.uniform_int(0, 1300));
    const sim::SimTime delay = shaper.reserve(now, len);
    if (delay > 0) ++held;
    release.push_back(now + delay);
    bytes.push_back(len);
  }
  ASSERT_TRUE(std::is_sorted(release.begin(), release.end()));
  const double excess = worst_release_excess(release, bytes, rate, burst);
  EXPECT_LE(excess, kSlackBytes) << "rate=" << rate << " burst=" << burst;
  // The bound is tight enough to matter: some packets were held, and the
  // worst window sits on the bound to within one byte (the rounding
  // slack; the grid measures at most 0.07 B under it).
  EXPECT_GT(held, 0u);
  EXPECT_LT(held, 20000u);
  EXPECT_GT(excess, -1.0) << "rate=" << rate << " burst=" << burst;
}

INSTANTIATE_TEST_SUITE_P(
    RateBurst, ShaperBound,
    ::testing::Combine(::testing::Values(50e3, 200e3, 1e6),
                       ::testing::Values(1500.0, 3000.0, 20000.0)));

}  // namespace
}  // namespace mvpn
