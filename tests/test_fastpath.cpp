#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/scenario_config.hpp"
#include "obs/trace.hpp"
#include "qos/sla.hpp"
#include "test_flows.hpp"
#include "traffic/dispatcher.hpp"
#include "traffic/sink.hpp"
#include "traffic/tcp_lite.hpp"
#include "vpn/flow_table.hpp"

namespace mvpn {
namespace {

using backbone::BackboneConfig;
using backbone::MplsBackbone;

/// Count fastpath trace events of `type` at `node` stamped at or after
/// `after`.
std::size_t count_events(const std::vector<obs::TraceEvent>& evs,
                         obs::EventType type, ip::NodeId node,
                         sim::SimTime after = 0) {
  std::size_t n = 0;
  for (const auto& e : evs) {
    if (e.type == type && e.node == node && e.at >= after) ++n;
  }
  return n;
}

/// Small backbone + one CBR flow site0 → site1, flight recorder armed for
/// the fastpath category. The shared setup of the invalidation tests.
struct FlowFixture {
  explicit FlowFixture(const BackboneConfig& cfg, double rate_bps = 400e3)
      : bb(cfg) {
    v = bb.service.create_vpn("V");
    site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
    site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
    bb.start_and_converge();
    bb.topo.recorder().enable(
        static_cast<std::uint32_t>(obs::Category::kFastpath));
    sink.emplace(probe, bb.topo.scheduler());
    sink->bind(*site_b.ce);
    src.emplace(bb.topo.scheduler(), &probe, bb.topo.seed());
    src->add_flow(testutil::flow_between(*src, 1, *site_a.ce, "10.1.0.1",
                                         *site_b.ce, "10.2.0.1", rate_bps, v));
    sink->expect_flow(1, qos::Phb::kBe, v);
  }

  MplsBackbone bb;
  vpn::VpnId v = 0;
  MplsBackbone::Site site_a, site_b;
  qos::SlaProbe probe;
  std::optional<traffic::MeasurementSink> sink;
  std::optional<traffic::FlowSet> src;
};

void disable_flowcache(net::Topology& topo) {
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    if (auto* r =
            dynamic_cast<vpn::Router*>(&topo.node(static_cast<ip::NodeId>(i)))) {
      r->set_flowcache_enabled(false);
    }
  }
}

BackboneConfig small_backbone(std::uint64_t seed) {
  BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.seed = seed;
  return cfg;
}

/// Steady flow: the first packet populates the caches (kFastpathResolve),
/// every later packet is a hit; nothing invalidates.
TEST(Fastpath, SteadyFlowHitsCacheAfterFirstPacket) {
  FlowFixture fx(small_backbone(11));
  const sim::SimTime t0 = fx.bb.topo.scheduler().now();
  fx.src->run(t0 + sim::kSecond);
  fx.bb.topo.run_until(t0 + 2 * sim::kSecond);

  EXPECT_EQ(fx.sink->delivered(), fx.src->packets_sent());
  EXPECT_GT(fx.src->packets_sent(), 10u);

  // CE ingress, PE imposition and P transit caches all served the flow
  // from the second packet onwards.
  const auto& ce = fx.site_a.ce->flowcache_stats();
  EXPECT_GT(ce.hits, ce.misses);
  EXPECT_GE(ce.misses, 1u);
  EXPECT_GT(fx.bb.pe(0).flowcache_stats().hits, 0u);
  EXPECT_GT(fx.bb.p(0).flowcache_stats().hits, 0u);

  const auto evs = fx.bb.topo.recorder().snapshot();
  EXPECT_GT(count_events(evs, obs::EventType::kFastpathResolve,
                         fx.site_a.ce->id()),
            0u);
  EXPECT_GT(
      count_events(evs, obs::EventType::kFastpathResolve, fx.bb.p(0).id()),
      0u);
  for (const auto& e : evs) {
    EXPECT_NE(e.type, obs::EventType::kFastpathInvalidate);
  }
}

/// Disabled cache: identical delivery, zero cache traffic.
TEST(Fastpath, DisabledCacheStillDeliversWithZeroStats) {
  FlowFixture fx(small_backbone(11));
  disable_flowcache(fx.bb.topo);
  const sim::SimTime t0 = fx.bb.topo.scheduler().now();
  fx.src->run(t0 + sim::kSecond);
  fx.bb.topo.run_until(t0 + 2 * sim::kSecond);

  EXPECT_EQ(fx.sink->delivered(), fx.src->packets_sent());
  const auto& ce = fx.site_a.ce->flowcache_stats();
  EXPECT_EQ(ce.hits + ce.misses, 0u);
  EXPECT_EQ(fx.bb.p(0).flowcache_stats().hits +
                fx.bb.p(0).flowcache_stats().misses,
            0u);
  EXPECT_EQ(ce.slots, 0u);  // no table is ever allocated
}

/// TCP data and its ACKs share a flow id with swapped endpoints, so both
/// directions hash to one home slot. Their 5-tuple keys differ, and each
/// must keep its own slot in the probe window instead of evicting the
/// other on every packet.
TEST(Fastpath, BidirectionalFlowKeepsBothDirectionsResident) {
  backbone::Figure2Scenario s = backbone::make_figure2_scenario(104);
  MplsBackbone& bb = *s.backbone;
  bb.start_and_converge();
  traffic::FlowDispatcher at_site1;
  traffic::FlowDispatcher at_site2;
  at_site1.attach(*s.v1_site1.ce);
  at_site2.attach(*s.v1_site2.ce);
  traffic::TcpLiteFlow::Config cfg;
  cfg.src = ip::Ipv4Address::must_parse("10.1.0.1");
  cfg.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  cfg.vpn = s.vpn1;
  cfg.total_segments = 200;
  traffic::TcpLiteFlow flow(*s.v1_site1.ce, at_site1, *s.v1_site2.ce,
                            at_site2, 1, cfg);
  flow.start(0);
  bb.topo.run_until(20 * sim::kSecond);
  ASSERT_TRUE(flow.complete());

  // The four routers that look the transfer up by flow: both CEs and both
  // PEs. Each makes 600 lookups (200 segments, 200 ACKs, one direction
  // twice) into two tables that stay at their 16-slot start size.
  ASSERT_NE(s.v1_site1.pe_index, s.v1_site2.pe_index);
  for (vpn::Router* r : {s.v1_site1.ce, &bb.pe(s.v1_site1.pe_index),
                         &bb.pe(s.v1_site2.pe_index), s.v1_site2.ce}) {
    SCOPED_TRACE(r->name());
    const vpn::Router::FlowCacheStats fc = r->flowcache_stats();
    EXPECT_GE(fc.hits + fc.misses, 600u);
    EXPECT_LE(fc.misses, 4u);
    EXPECT_EQ(fc.slots, 32u);
  }
}

/// The flow cache's tag key for a UDP packet src:sport -> dst:dport: the
/// visible 5-tuple packed as INTERNALS §10 lays it out, folded to 64 bits.
std::uint64_t udp_flow_key(const char* src, std::uint16_t sport,
                           const char* dst, std::uint16_t dport) {
  const std::uint64_t addrs =
      (std::uint64_t{ip::Ipv4Address::must_parse(src).value()} << 32) |
      ip::Ipv4Address::must_parse(dst).value();
  const std::uint64_t meta = (std::uint64_t{sport} << 48) |
                             (std::uint64_t{dport} << 32) | (17u << 8) | 1u;
  return addrs ^ meta;
}

/// More distinct 5-tuples on one home slot than one probe window holds.
/// Each window overflow doubles the table until the cap; from then on the
/// home slot is evicted again and again. Eviction only costs
/// re-resolution: delivery and the SLA table equal the cache-off run.
TEST(Fastpath, CollidingKeysEvictAtCapWithoutChangingResults) {
  // Any slot type names the router tables' window and homing rule.
  struct AnySlot {
    std::uint64_t gen_sum = 0;
    [[nodiscard]] std::uint64_t tag_key() const noexcept { return 0; }
  };
  using Table = vpn::FlowTable<AnySlot, 1024>;
  // The first three flows send from port 10000 (classified EF), the rest
  // from 20000; each takes the lowest unused destination port whose key
  // shares the first flow's home slot at the cap, and so at every smaller
  // capacity.
  const auto ports = [] {
    std::vector<std::pair<std::uint16_t, std::uint16_t>> out;
    const auto home = [](std::uint16_t sport, std::uint16_t dport) {
      return Table::home_slot(
          udp_flow_key("10.1.0.1", sport, "10.2.0.1", dport), 1024);
    };
    const std::size_t target = home(10000, 1);
    std::uint16_t dport = 1;
    for (std::size_t i = 0; i < Table::kWindow + 2; ++i) {
      const std::uint16_t sport = i < 3 ? 10000 : 20000;
      if (i == 3) dport = 1;
      while (home(sport, dport) != target) ++dport;
      out.emplace_back(sport, dport++);
    }
    return out;
  }();
  struct Result {
    std::uint64_t delivered = 0;
    std::string sla_csv;
    vpn::Router::FlowCacheStats ce;
  };
  const auto run = [&](bool flowcache) {
    MplsBackbone bb(small_backbone(37));
    const vpn::VpnId v = bb.service.create_vpn("V");
    const auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
    const auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
    bb.start_and_converge();
    if (!flowcache) disable_flowcache(bb.topo);
    // Cached decisions worth getting wrong: a classifier split and an EF
    // policer whose binding the ingress entries carry.
    auto classifier = std::make_unique<qos::CbqClassifier>();
    qos::MatchRule ef;
    ef.src_port = qos::PortRange{10000, 10000};
    ef.mark = qos::Phb::kEf;
    classifier->add_rule(ef);
    site_a.ce->set_classifier(std::move(classifier));
    site_a.ce->add_policer(qos::Phb::kEf, 40e3, 3000, 3000);

    qos::SlaProbe probe;
    traffic::MeasurementSink sink(probe, bb.topo.scheduler());
    sink.bind(*site_b.ce);
    traffic::FlowSet src(bb.topo.scheduler(), &probe, bb.topo.seed());
    for (std::size_t i = 0; i < ports.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i + 1);
      auto def = testutil::flow_between(src, id, *site_a.ce, "10.1.0.1",
                                        *site_b.ce, "10.2.0.1", 300e3, v);
      def.src_port = ports[i].first;
      def.dst_port = ports[i].second;
      def.phb = i < 3 ? qos::Phb::kEf : qos::Phb::kBe;
      src.add_flow(def);
      sink.expect_flow(id, def.phb, v);
    }
    const sim::SimTime t0 = bb.topo.scheduler().now();
    src.run(t0 + sim::kSecond);
    bb.topo.run_until(t0 + 2 * sim::kSecond);
    return Result{sink.delivered(), probe.to_csv(1.0),
                  site_a.ce->flowcache_stats()};
  };

  const Result on = run(true);
  const Result off = run(false);
  EXPECT_GT(on.delivered, 0u);
  EXPECT_EQ(on.delivered, off.delivered);
  EXPECT_EQ(on.sla_csv, off.sla_csv);
  // Both source-CE tables grew to the cap, and re-resolutions beyond the
  // flows' first packets show the home slot being evicted.
  EXPECT_EQ(on.ce.slots, 2u * 1024u);
  EXPECT_GT(on.ce.misses, 2u * ports.size());
  EXPECT_GT(on.ce.hits, 0u);
}

/// A bare FlowTable slot keyed by a flow id.
struct IdSlot {
  std::uint32_t id = 0;
  std::uint64_t gen_sum = 0;
  [[nodiscard]] std::uint64_t tag_key() const noexcept { return id; }
};

/// `n` distinct pseudo-random flow ids (a full-period LCG mod 2^32).
std::vector<std::uint32_t> scattered_ids(std::size_t n) {
  std::vector<std::uint32_t> ids;
  std::uint32_t x = 12345;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    ids.push_back(x);
  }
  return ids;
}

/// The 16-slot tag window lets a table fill further before it doubles.
/// The capacities on the right are what the 8-slot window without tags
/// reached for the same ids; no table may need more, and every id put in
/// must be found again.
TEST(FlowTable, WiderWindowNeverOutgrowsEightSlotTableAndFindsAll) {
  using Table = vpn::FlowTable<IdSlot, (1u << 16)>;
  for (const auto& [n, eight_slot_capacity] :
       {std::pair<std::size_t, std::size_t>{64, 128}, {256, 512},
        {1024, 4096}}) {
    SCOPED_TRACE(n);
    Table t;
    const std::vector<std::uint32_t> ids = scattered_ids(n);
    for (const std::uint32_t id : ids) {
      const auto probe =
          t.find(id, [id](const IdSlot& s) { return s.id == id; });
      ASSERT_FALSE(probe.found);
      probe.slot->id = id;
      t.commit(probe.slot, 1);
    }
    EXPECT_LE(t.capacity(), eight_slot_capacity);
    for (const std::uint32_t id : ids) {
      const auto probe =
          t.find(id, [id](const IdSlot& s) { return s.id == id; });
      ASSERT_TRUE(probe.found) << id;
      EXPECT_EQ(probe.slot->id, id);
    }
  }
}

/// A slot released through the table is free again: its tag clears with
/// its gen_sum, so a new flow takes it instead of evicting a live entry.
TEST(FlowTable, ReleasedSlotIsReusedByAnotherFlow) {
  // Capped at its 16-slot start size, which one window spans: 16 flows
  // fill it, and only a released slot can take a 17th without eviction.
  vpn::FlowTable<IdSlot, 16> t;
  std::vector<std::uint32_t> ids = scattered_ids(16 + 16);
  std::vector<std::uint32_t> resident(ids.begin(), ids.begin() + 16);
  const auto find = [&t](std::uint32_t id) {
    return t.find(id, [id](const IdSlot& s) { return s.id == id; });
  };
  for (const std::uint32_t id : resident) {
    const auto probe = find(id);
    probe.slot->id = id;
    t.commit(probe.slot, 1);
  }
  ASSERT_EQ(t.capacity(), 16u);
  for (std::size_t round = 0; round < 16; ++round) {
    SCOPED_TRACE(round);
    IdSlot* released = find(resident[round]).slot;
    t.release(released);
    EXPECT_FALSE(find(resident[round]).found);
    const std::uint32_t newcomer = ids[16 + round];
    const auto probe = find(newcomer);
    ASSERT_FALSE(probe.found);
    EXPECT_EQ(probe.slot, released);
    probe.slot->id = newcomer;
    t.commit(probe.slot, 1);
    resident[round] = newcomer;
    for (const std::uint32_t id : resident) EXPECT_TRUE(find(id).found) << id;
  }
  EXPECT_EQ(t.capacity(), 16u);
}

/// A slot keyed by a packed 5-tuple, carrying the flow id that recorded it.
struct TupleSlot {
  std::uint64_t addrs = 0;
  std::uint64_t meta = 0;
  std::uint64_t gen_sum = 0;
  std::uint32_t flow_id = 0;
  [[nodiscard]] std::uint64_t tag_key() const noexcept {
    return addrs ^ meta;
  }
};

/// Entries are homed by their matched key, so flows with different ids
/// but one visible 5-tuple share one entry wherever the table stands: a
/// thousand of them fill exactly one slot of the start-size table.
TEST(FlowTable, FlowIdsSharingOneKeyFillOneSlot) {
  vpn::FlowTable<TupleSlot, 1024> t;
  constexpr std::uint64_t kAddrs = 0x0A0100010A020001u;
  constexpr std::uint64_t kMeta = (std::uint64_t{10000} << 48) |
                                  (std::uint64_t{20000} << 32) |
                                  (17u << 8) | 1u;
  const auto match = [](const TupleSlot& s) {
    return s.addrs == kAddrs && s.meta == kMeta;
  };
  TupleSlot* first = nullptr;
  for (std::uint32_t id = 1; id <= 1000; ++id) {
    const auto probe = t.find(kAddrs ^ kMeta, match);
    if (id == 1) {
      ASSERT_FALSE(probe.found);
      first = probe.slot;
      *first = TupleSlot{kAddrs, kMeta, 0, id};
      t.commit(first, 1);
      continue;
    }
    ASSERT_TRUE(probe.found) << id;
    ASSERT_EQ(probe.slot, first) << id;
    EXPECT_EQ(probe.slot->flow_id, 1u);  // the recording flow's entry
  }
  EXPECT_EQ(t.capacity(), (vpn::FlowTable<TupleSlot, 1024>::kStartSlots));
}

/// A TCP data flow and its ACKs share a flow id with swapped endpoints.
/// Their keys differ, so each direction gets and keeps its own entry, and
/// a lookup for one never returns the other's.
TEST(FlowTable, DataAndAckDirectionsNeverShareAnEntry) {
  const std::uint32_t a = 0x0A010001u;  // 10.1.0.1
  const std::uint32_t b = 0x0A020001u;  // 10.2.0.1
  const auto pack = [](std::uint32_t src, std::uint16_t sport,
                       std::uint32_t dst, std::uint16_t dport) {
    return TupleSlot{(std::uint64_t{src} << 32) | dst,
                     (std::uint64_t{sport} << 48) |
                         (std::uint64_t{dport} << 32) | (6u << 8) | 1u,
                     0, 0};
  };
  vpn::FlowTable<TupleSlot, 1024> t;
  const auto find = [&t](const TupleSlot& k) {
    return t.find(k.tag_key(), [&k](const TupleSlot& s) {
      return s.addrs == k.addrs && s.meta == k.meta;
    });
  };
  // Several port pairs, including ones whose ports swap onto each other.
  for (const auto& [sp, dp] : {std::pair<std::uint16_t, std::uint16_t>{
                                   40000, 80},
                               {5001, 5001},
                               {1, 2},
                               {2, 1}}) {
    SCOPED_TRACE(std::to_string(sp) + "->" + std::to_string(dp));
    const TupleSlot data = pack(a, sp, b, dp);
    const TupleSlot ack = pack(b, dp, a, sp);
    ASSERT_NE(data.tag_key(), ack.tag_key());
    auto d = find(data);
    if (!d.found) {
      *d.slot = data;
      d.slot->flow_id = 7;
      t.commit(d.slot, 1);
    }
    auto k = find(ack);
    ASSERT_FALSE(k.found && k.slot == d.slot);
    if (!k.found) {
      *k.slot = ack;
      k.slot->flow_id = 7;
      t.commit(k.slot, 2);
    }
    for (int round = 0; round < 3; ++round) {
      const auto d2 = find(data);
      const auto k2 = find(ack);
      ASSERT_TRUE(d2.found);
      ASSERT_TRUE(k2.found);
      EXPECT_NE(d2.slot, k2.slot);
      EXPECT_EQ(d2.slot->addrs, data.addrs);
      EXPECT_EQ(k2.slot->addrs, ack.addrs);
    }
  }
  EXPECT_EQ(t.capacity(), (vpn::FlowTable<TupleSlot, 1024>::kStartSlots));
}

/// An LDP withdrawal — even of a FEC the flow does not ride — bumps the
/// LDP generation; the cached decisions go stale, the next packet traces
/// kFastpathInvalidate and re-resolves successfully with no loss.
TEST(Fastpath, LdpWithdrawInvalidatesAndReResolves) {
  BackboneConfig cfg = small_backbone(13);
  cfg.pe_count = 3;  // PE2 exists only to have an unrelated FEC to withdraw
  FlowFixture fx(cfg);
  const sim::SimTime t0 = fx.bb.topo.scheduler().now();
  fx.src->run(t0 + sim::kSecond);

  const sim::SimTime t_mut = t0 + sim::kSecond / 2;
  std::uint64_t gen_before = 0;
  fx.bb.topo.scheduler().schedule_at(t_mut, [&] {
    gen_before = fx.bb.ldp.generation();
    fx.bb.ldp.withdraw_fec(ip::Prefix::host(fx.bb.pe(2).loopback()));
  });
  fx.bb.topo.run_until(t0 + 2 * sim::kSecond);

  EXPECT_GT(fx.bb.ldp.generation(), gen_before);
  // Unrelated FEC: the flow's own path is intact, nothing was lost.
  EXPECT_EQ(fx.sink->delivered(), fx.src->packets_sent());
  EXPECT_GT(fx.bb.pe(0).flowcache_stats().invalidated, 0u);

  const auto evs = fx.bb.topo.recorder().snapshot();
  const ip::NodeId pe0 = fx.bb.pe(0).id();
  EXPECT_GT(
      count_events(evs, obs::EventType::kFastpathInvalidate, pe0, t_mut),
      0u);
  EXPECT_GT(
      count_events(evs, obs::EventType::kFastpathResolve, pe0, t_mut), 0u);
}

/// Withdrawing the FEC the flow actually rides kills imposition: the PE
/// invalidates, re-resolves, finds no tunnel, and traffic stops — no
/// packet keeps riding a stale cached label into a dead label table.
TEST(Fastpath, LdpWithdrawOfUsedFecStopsTraffic) {
  FlowFixture fx(small_backbone(17));
  const sim::SimTime t0 = fx.bb.topo.scheduler().now();
  fx.src->run(t0 + sim::kSecond);

  const sim::SimTime t_mut = t0 + sim::kSecond / 2;
  std::uint64_t delivered_at_mut = 0;
  fx.bb.topo.scheduler().schedule_at(t_mut, [&] {
    delivered_at_mut = fx.sink->delivered();
    fx.bb.ldp.withdraw_fec(ip::Prefix::host(fx.bb.pe(1).loopback()));
  });
  fx.bb.topo.run_until(t0 + 2 * sim::kSecond);

  EXPECT_GT(delivered_at_mut, 0u);
  EXPECT_LT(fx.sink->delivered(), fx.src->packets_sent());
  // Only packets already in flight at the withdrawal instant may still
  // arrive.
  EXPECT_LE(fx.sink->delivered(), delivered_at_mut + 5);
  const auto evs = fx.bb.topo.recorder().snapshot();
  EXPECT_GT(count_events(evs, obs::EventType::kFastpathInvalidate,
                         fx.bb.pe(0).id(), t_mut),
            0u);
}

/// RSVP-TE reroute: failing the link under a bound LSP bumps the RSVP
/// generation; the head end invalidates its cached tunnel resolution and
/// re-resolves onto the detour.
TEST(Fastpath, RsvpRerouteInvalidatesTunnelResolution) {
  backbone::DiamondScenario d = backbone::make_diamond_scenario(10e6, 19);
  MplsBackbone& bb = *d.backbone;
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();
  bb.topo.recorder().enable(
      static_cast<std::uint32_t>(obs::Category::kFastpath));

  mpls::TeLspConfig lsp_cfg;
  lsp_cfg.head = bb.pe(0).id();
  lsp_cfg.tail = bb.pe(1).id();
  lsp_cfg.bandwidth_bps = 2e6;
  const mpls::LspId lsp = bb.rsvp.signal(lsp_cfg);
  bb.topo.scheduler().run();
  ASSERT_EQ(bb.rsvp.lsp(lsp).state, mpls::RsvpTe::LspState::kUp);
  bb.pe(0).bind_lsp(bb.pe(1).id(), lsp);

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_b.ce);
  traffic::FlowSet src(bb.topo.scheduler(), &probe, bb.topo.seed());
  src.add_flow(testutil::flow_between(src, 1, *site_a.ce, "10.1.0.1",
                                      *site_b.ce, "10.2.0.1", 500e3, v));
  sink.expect_flow(1, qos::Phb::kBe, v);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  src.run(t0 + 4 * sim::kSecond);
  const sim::SimTime t_fail = t0 + sim::kSecond;
  std::uint64_t gen_before = 0;
  bb.topo.scheduler().schedule_at(t_fail, [&] {
    gen_before = bb.rsvp.generation();
    bb.topo.link(d.hot_link).set_up(false);
    bb.igp.notify_link_change(d.hot_link);
    bb.rsvp.notify_link_failure(d.hot_link);
  });
  bb.topo.run_until(t0 + 6 * sim::kSecond);

  EXPECT_GT(bb.rsvp.generation(), gen_before);
  EXPECT_EQ(bb.rsvp.lsp(lsp).state, mpls::RsvpTe::LspState::kUp);
  EXPECT_EQ(bb.rsvp.lsp(lsp).reroutes, 1u);
  EXPECT_LT(probe.report(qos::Phb::kBe).loss_fraction(), 0.05);

  const auto evs = bb.topo.recorder().snapshot();
  const ip::NodeId pe0 = bb.pe(0).id();
  EXPECT_GT(
      count_events(evs, obs::EventType::kFastpathInvalidate, pe0, t_fail),
      0u);
  EXPECT_GT(
      count_events(evs, obs::EventType::kFastpathResolve, pe0, t_fail),
      0u);
}

/// Replacing a VRF route (same prefix, re-install) bumps the table
/// generation; the next packet re-resolves instead of replaying the old
/// cached decision.
TEST(Fastpath, VrfRouteReplaceInvalidates) {
  FlowFixture fx(small_backbone(23));
  const sim::SimTime t0 = fx.bb.topo.scheduler().now();
  fx.src->run(t0 + sim::kSecond);

  const sim::SimTime t_mut = t0 + sim::kSecond / 2;
  std::uint64_t gen_before = 0;
  std::uint64_t gen_after = 0;
  fx.bb.topo.scheduler().schedule_at(t_mut, [&] {
    vpn::Vrf* vrf = fx.bb.pe(0).vrf_by_vpn(fx.v);
    ASSERT_NE(vrf, nullptr);
    const ip::RouteEntry* r =
        vrf->table().lookup(ip::Ipv4Address::must_parse("10.2.0.1"));
    ASSERT_NE(r, nullptr);
    const ip::RouteEntry replacement = *r;  // `r` dies on install
    gen_before = vrf->table().generation();
    vrf->table().install(replacement);
    gen_after = vrf->table().generation();
  });
  fx.bb.topo.run_until(t0 + 2 * sim::kSecond);

  EXPECT_GT(gen_after, gen_before);
  EXPECT_EQ(fx.sink->delivered(), fx.src->packets_sent());
  const auto evs = fx.bb.topo.recorder().snapshot();
  const ip::NodeId pe0 = fx.bb.pe(0).id();
  EXPECT_GT(
      count_events(evs, obs::EventType::kFastpathInvalidate, pe0, t_mut),
      0u);
  EXPECT_GT(
      count_events(evs, obs::EventType::kFastpathResolve, pe0, t_mut), 0u);
}

/// A core link failure reconverges the IGP; the SPF bumps the LDP
/// generation (next hops changed), stale entries self-invalidate and the
/// flow re-resolves onto the surviving ring path.
TEST(Fastpath, LinkFailureReconvergenceInvalidates) {
  BackboneConfig cfg;
  cfg.p_count = 3;  // ring: an alternate path exists
  cfg.pe_count = 2;
  cfg.seed = 29;
  FlowFixture fx(cfg, 200e3);
  const sim::SimTime t0 = fx.bb.topo.scheduler().now();
  fx.src->run(t0 + 4 * sim::kSecond);

  const sim::SimTime t_fail = t0 + sim::kSecond;
  std::uint64_t gen_before = 0;
  fx.bb.topo.scheduler().schedule_at(t_fail, [&] {
    const auto* nh =
        fx.bb.igp.next_hop(fx.bb.pe(0).id(), fx.bb.pe(1).id());
    ASSERT_NE(nh, nullptr);
    const net::LinkId used = fx.bb.pe(0).interface(nh->iface).link;
    gen_before = fx.bb.ldp.generation();
    fx.bb.topo.link(used).set_up(false);
    fx.bb.igp.notify_link_change(used);
  });
  fx.bb.topo.run_until(t0 + 6 * sim::kSecond);

  EXPECT_GT(fx.bb.ldp.generation(), gen_before);
  // Self-healing: only the reconvergence window is lost.
  EXPECT_LT(fx.probe.report(qos::Phb::kBe).loss_fraction(), 0.10);
  EXPECT_GT(fx.sink->delivered(), 0u);
  const auto evs = fx.bb.topo.recorder().snapshot();
  EXPECT_GT(count_events(evs, obs::EventType::kFastpathInvalidate,
                         fx.bb.pe(0).id(), t_fail),
            0u);
}

/// A classifier mutation invalidates the CE ingress cache: adding a rule
/// mid-run changes how the very next packet of an established flow is
/// marked — the cache must not replay the stale DSCP.
TEST(Fastpath, ClassifierMutationReclassifiesNextPacket) {
  FlowFixture fx(small_backbone(31));
  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule narrow;  // matches nothing this flow sends
  narrow.dst_port = qos::PortRange::exactly(9);
  narrow.mark = qos::Phb::kAf11;
  classifier->add_rule(narrow);
  fx.site_a.ce->set_classifier(std::move(classifier));

  // Observe the marking as packets arrive at the ingress PE.
  const sim::SimTime t0 = fx.bb.topo.scheduler().now();
  const sim::SimTime t_mut = t0 + sim::kSecond / 2;
  const ip::NodeId pe0 = fx.bb.pe(0).id();
  std::uint64_t unmarked_before = 0, marked_before = 0;
  std::uint64_t unmarked_after = 0, marked_after = 0;
  fx.bb.topo.add_packet_tap([&](ip::NodeId at, const net::Packet& p) {
    if (at != pe0) return;
    const bool before = fx.bb.topo.scheduler().now() < t_mut;
    if (p.visible_dscp() == 0) {
      ++(before ? unmarked_before : unmarked_after);
    } else {
      ++(before ? marked_before : marked_after);
    }
  });

  fx.src->run(t0 + sim::kSecond);
  fx.bb.topo.scheduler().schedule_at(t_mut, [&] {
    qos::MatchRule all;  // port-blind: matches the flow from now on
    all.mark = qos::Phb::kAf21;
    fx.site_a.ce->classifier()->add_rule(all);
  });
  fx.bb.topo.run_until(t0 + 2 * sim::kSecond);

  // Before the mutation every packet crossed the PE unmarked (BE); after
  // it, marked. A stale cached decision would keep producing DSCP 0.
  EXPECT_GT(unmarked_before, 0u);
  EXPECT_EQ(marked_before, 0u);
  EXPECT_GT(marked_after, 0u);
  EXPECT_LE(unmarked_after, 1u);  // at most one packet already in flight
  const auto evs = fx.bb.topo.recorder().snapshot();
  EXPECT_GT(count_events(evs, obs::EventType::kFastpathInvalidate,
                         fx.site_a.ce->id(), t_mut),
            0u);
}

/// End-to-end A/B: the full scenario report (SLA table, isolation
/// accounting) is byte-identical with the flow caches on and off, serial
/// and sharded.
TEST(Fastpath, ScenarioOutputByteIdenticalOnOff) {
  const std::string text = R"(
backbone p=2 pe=2 core_bw=4e6 edge_bw=20e6 seed=7 core_queue=wfq:8,3,1
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16384-16484 class=EF
classify site=0 dstport=5004 class=AF21
police  site=0 class=EF cir=62500 cbs=4000 ebs=4000
flow cbr     vpn=corp from=0 to=1 rate=400e3 class=EF   port=16400 size=172
flow onoff   vpn=corp from=0 to=1 rate=2e6   class=AF21 port=5004  size=1172 on=0.3 off=0.2
flow poisson vpn=corp from=0 to=1 rate=4e6   class=BE   port=80    size=1472
run for=1
)";
  backbone::ScenarioError err;
  const auto scenario = backbone::Scenario::parse(text, &err);
  ASSERT_TRUE(scenario.has_value()) << err.message;

  const auto render = [&](bool flowcache, std::uint32_t shards) {
    backbone::Scenario s = *scenario;
    s.set_flowcache(flowcache);
    s.set_shards(shards);
    std::ostringstream out;
    EXPECT_TRUE(s.run(out));
    return out.str();
  };

  const std::string serial_on = render(true, 1);
  EXPECT_EQ(serial_on, render(false, 1));
  EXPECT_EQ(render(true, 2), render(false, 2));
  EXPECT_EQ(render(true, 4), render(false, 4));
  // And across shard counts: everything below the engine-description
  // header (SLA table, delivery accounting) must not depend on the
  // partition.
  const auto body = [](const std::string& report) {
    return report.substr(report.find("\n\n"));
  };
  EXPECT_EQ(body(serial_on), body(render(true, 4)));
}

/// The scenario language's `run flowcache=` directive parses (and rejects
/// junk).
TEST(Fastpath, ScenarioFlowcacheDirectiveParses) {
  const std::string good = R"(
backbone p=1 pe=2 seed=3
vpn v
site v pe=0 prefix=10.1.0.0/16
site v pe=1 prefix=10.2.0.0/16
flow cbr vpn=v from=0 to=1 rate=100e3
run for=1 flowcache=off
)";
  backbone::ScenarioError err;
  const auto scenario = backbone::Scenario::parse(good, &err);
  ASSERT_TRUE(scenario.has_value()) << err.message;
  EXPECT_FALSE(scenario->flowcache());

  std::string bad = good;
  bad.replace(bad.find("flowcache=off"), std::string("flowcache=off").size(),
              "flowcache=maybe");
  backbone::ScenarioError err2;
  EXPECT_FALSE(backbone::Scenario::parse(bad, &err2).has_value());
}

}  // namespace
}  // namespace mvpn
