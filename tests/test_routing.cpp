#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backbone/fixtures.hpp"
#include "golden.hpp"
#include "net/topology.hpp"
#include "routing/bgp.hpp"
#include "routing/control_plane.hpp"
#include "routing/hello.hpp"
#include "routing/igp.hpp"
#include "routing/link_state.hpp"
#include "vpn/router.hpp"

namespace mvpn::routing {
namespace {

using vpn::Role;
using vpn::Router;

struct IgpFixture {
  net::Topology topo;
  ControlPlane cp{topo};
  Igp igp{cp};
  std::vector<Router*> routers;

  Router& add(const std::string& name) {
    auto& r = topo.add_node<Router>(name, Role::kP);
    routers.push_back(&r);
    igp.add_router(r.id());
    return r;
  }
  net::LinkId link(Router& a, Router& b, std::uint32_t cost = 1,
                   double bw = 10e6) {
    net::LinkConfig cfg;
    cfg.igp_cost = cost;
    cfg.bandwidth_bps = bw;
    return topo.connect(a.id(), b.id(), cfg);
  }
  void converge() {
    igp.start();
    topo.scheduler().run();
  }
};

TEST(ControlPlane, CountsMessagesByType) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  topo.connect(a.id(), b.id());
  ControlPlane cp(topo);
  int delivered = 0;
  EXPECT_TRUE(cp.send_adjacent(a.id(), b.id(), "x.hello", 40,
                               [&] { ++delivered; }));
  cp.send_session(a.id(), b.id(), "y.update", 60, [&] { ++delivered; });
  topo.scheduler().run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(cp.message_count("x.hello"), 1u);
  EXPECT_EQ(cp.byte_count("y.update"), 60u);
  EXPECT_EQ(cp.total_messages(), 2u);
  EXPECT_EQ(cp.total_bytes(), 100u);
  cp.reset_counters();
  EXPECT_EQ(cp.total_messages(), 0u);
}

TEST(ControlPlane, AdjacentFailsWithoutLinkOrWhenDown) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  auto& c = topo.add_node<Router>("c", Role::kP);
  const net::LinkId l = topo.connect(a.id(), b.id());
  ControlPlane cp(topo);
  EXPECT_FALSE(cp.send_adjacent(a.id(), c.id(), "t", 1, [] {}));
  topo.link(l).set_up(false);
  EXPECT_FALSE(cp.send_adjacent(a.id(), b.id(), "t", 1, [] {}));
}

TEST(LinkStateDb, InstallsOnlyNewer) {
  LinkStateDb db;
  Lsa lsa;
  lsa.origin = 1;
  lsa.sequence = 2;
  EXPECT_TRUE(db.install(lsa));
  EXPECT_FALSE(db.install(lsa));  // same sequence
  lsa.sequence = 1;
  EXPECT_FALSE(db.install(lsa));  // older
  lsa.sequence = 3;
  EXPECT_TRUE(db.install(lsa));
  EXPECT_EQ(db.find(1)->sequence, 3u);
  EXPECT_EQ(db.find(9), nullptr);
  EXPECT_EQ(db.size(), 1u);
}

TEST(ShortestPath, PrefersLowCostThenFewHops) {
  // 0 -1- 1 -1- 2   and   0 -3- 2 direct: cost path wins via 1.
  LinkStateDb db;
  auto mk = [&](ip::NodeId origin, std::vector<LsaLink> links) {
    Lsa lsa;
    lsa.origin = origin;
    lsa.sequence = 1;
    lsa.links = std::move(links);
    db.install(lsa);
  };
  mk(0, {{1, 0, 1, 1e6, 1e6}, {2, 1, 3, 1e6, 1e6}});
  mk(1, {{0, 0, 1, 1e6, 1e6}, {2, 2, 1, 1e6, 1e6}});
  mk(2, {{0, 1, 3, 1e6, 1e6}, {1, 2, 1, 1e6, 1e6}});

  const ComputedPath p = shortest_path(db, 0, 2);
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.cost, 2u);
  EXPECT_EQ(p.nodes, (std::vector<ip::NodeId>{0, 1, 2}));
  EXPECT_EQ(p.hop_count(), 2u);
}

TEST(ShortestPath, RespectsBandwidthConstraintAndExclusion) {
  LinkStateDb db;
  auto mk = [&](ip::NodeId origin, std::vector<LsaLink> links) {
    Lsa lsa;
    lsa.origin = origin;
    lsa.sequence = 1;
    lsa.links = std::move(links);
    db.install(lsa);
  };
  // Two parallel 0→1 paths: link 0 (skinny 1 Mb/s), links 1+2 via node 2.
  mk(0, {{1, 0, 1, 1e6, 1e6}, {2, 1, 1, 10e6, 10e6}});
  mk(1, {{0, 0, 1, 1e6, 1e6}, {2, 2, 1, 10e6, 10e6}});
  mk(2, {{0, 1, 1, 10e6, 10e6}, {1, 2, 1, 10e6, 10e6}});

  EXPECT_EQ(shortest_path(db, 0, 1).hop_count(), 1u);
  // Demand 5 Mb/s: the direct skinny link is ineligible.
  const ComputedPath constrained = shortest_path(db, 0, 1, 5e6);
  EXPECT_EQ(constrained.hop_count(), 2u);
  // Exclude the detour's first link: nothing qualifies.
  const ComputedPath dead = shortest_path(db, 0, 1, 5e6, {1});
  EXPECT_FALSE(dead.found());
}

TEST(ShortestPath, RequiresTwoWayAdjacency) {
  LinkStateDb db;
  Lsa a;
  a.origin = 0;
  a.sequence = 1;
  a.links = {{1, 0, 1, 1e6, 1e6}};
  db.install(a);
  Lsa b;
  b.origin = 1;
  b.sequence = 1;  // no back-link to 0
  db.install(b);
  EXPECT_FALSE(shortest_path(db, 0, 1).found());
}

TEST(ShortestPath, SourceEqualsDestination) {
  LinkStateDb db;
  Lsa a;
  a.origin = 5;
  a.sequence = 1;
  db.install(a);
  const ComputedPath p = shortest_path(db, 5, 5);
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.hop_count(), 0u);
}

TEST(Igp, FloodingSynchronizesAllRouters) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b);
  f.link(b, c);
  f.link(c, d);
  f.converge();
  EXPECT_TRUE(f.igp.synchronized());
  EXPECT_GT(f.cp.message_count("igp.lsa"), 0u);
  EXPECT_GT(f.igp.spf_runs(), 0u);
}

TEST(Igp, NextHopsFollowShortestPath) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);  // expensive direct
  f.converge();
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, b.id());
  EXPECT_EQ(nh->cost, 2u);
  const auto path = f.igp.path(a.id(), c.id());
  EXPECT_EQ(path.nodes, (std::vector<ip::NodeId>{a.id(), b.id(), c.id()}));
}

TEST(Igp, ReconvergesAfterLinkFailure) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);
  f.converge();
  ASSERT_EQ(f.igp.next_hop(a.id(), c.id())->via, b.id());

  f.topo.link(ab).set_up(false);
  f.igp.notify_link_change(ab);
  f.topo.scheduler().run();
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, c.id());  // fell back to the expensive direct link
}

TEST(Igp, TeReservationsShrinkReservable) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  const net::LinkId l = f.link(a, b, 1, 10e6);
  f.converge();
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 10e6);
  EXPECT_TRUE(f.igp.te_reserve(a.id(), l, 6e6));
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 4e6);
  EXPECT_FALSE(f.igp.te_reserve(a.id(), l, 5e6));  // admission fails
  EXPECT_TRUE(f.igp.te_reserve(a.id(), l, 4e6));
  f.igp.te_release(a.id(), l, 10e6);
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 10e6);
  // Direction independence: b's side is untouched throughout.
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(b.id(), l), 10e6);
}

TEST(Igp, CspfAvoidsReservedLinks) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId direct = f.link(a, b, 1, 10e6);
  f.link(a, c, 1, 10e6);
  f.link(c, b, 1, 10e6);
  f.converge();
  EXPECT_EQ(f.igp.cspf(a.id(), b.id(), 8e6).hop_count(), 1u);
  ASSERT_TRUE(f.igp.te_reserve(a.id(), direct, 5e6));
  f.topo.scheduler().run();  // re-flood updated TE attributes
  const ComputedPath detour = f.igp.cspf(a.id(), b.id(), 8e6);
  ASSERT_TRUE(detour.found());
  EXPECT_EQ(detour.hop_count(), 2u);
}

TEST(Igp, MembershipQueriesThrowForStrangers) {
  IgpFixture f;
  f.add("a");
  EXPECT_FALSE(f.igp.is_member(99));
  EXPECT_THROW(f.igp.lsdb(99), std::invalid_argument);
}

// ---------------------------------------------------------------------------

struct BgpFixture {
  net::Topology topo;
  ControlPlane cp{topo};

  VpnRoute route(std::uint32_t rd_low, const char* prefix,
                 ip::NodeId origin, std::uint32_t label = 100) {
    VpnRoute r;
    r.rd = RouteDistinguisher{65000, rd_low};
    r.prefix = ip::Prefix::must_parse(prefix);
    r.next_hop = ip::Ipv4Address(10, 255, 0, std::uint8_t(origin));
    r.next_hop_node = origin;
    r.vpn_label = label;
    r.route_targets.push_back(RouteTarget{65000, rd_low});
    return r;
  }

  /// Make every PE speaker of `bgp` import the RTs fixture routes carry
  /// (65000:1 to 65000:9), so distribution reaches all of them.
  static void import_all(Bgp& bgp) {
    std::vector<RouteTarget> rts;
    for (std::uint32_t n = 1; n <= 9; ++n) rts.push_back(RouteTarget{65000, n});
    for (ip::NodeId pe : bgp.speakers()) bgp.set_membership(pe, rts);
  }
};

TEST(Bgp, FullMeshPropagatesToAllSpeakers) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 4; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  EXPECT_EQ(bgp.session_count(), 6u);  // 4*3/2

  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 0; n < 4; ++n) {
    const std::optional<VpnRoute> best = bgp.best(n, key);
    ASSERT_TRUE(best.has_value()) << "speaker " << n;
    EXPECT_EQ(best->next_hop_node, 0u);
    EXPECT_EQ(best->vpn_label, 100u);
  }
  EXPECT_EQ(f.cp.message_count("bgp.update"), 3u);  // one per peer
}

TEST(Bgp, RouteReflectorReachesEveryClientWithFewerSessions) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  for (ip::NodeId n = 0; n < 6; ++n) {
    f.topo.add_node<Router>("n" + std::to_string(n), Role::kPe);
  }
  for (ip::NodeId n = 0; n < 5; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(5);
  f.import_all(bgp);
  bgp.start();
  EXPECT_EQ(bgp.session_count(), 5u);  // clients to one RR
  EXPECT_TRUE(bgp.is_reflector(5));

  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 1; n < 5; ++n) {
    ASSERT_TRUE(bgp.best(n, key).has_value()) << "client " << n;
  }
}

TEST(Bgp, WithdrawRemovesEverywhere) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  ASSERT_TRUE(bgp.best(2, key).has_value());

  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  f.topo.scheduler().run();
  EXPECT_FALSE(bgp.best(0, key).has_value());
  EXPECT_FALSE(bgp.best(1, key).has_value());
  EXPECT_FALSE(bgp.best(2, key).has_value());
  EXPECT_GT(f.cp.message_count("bgp.withdraw"), 0u);
}

TEST(Bgp, BestPathPrefersLocalPrefThenLowerOriginator) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  // Same key from two origins (multihomed site).
  VpnRoute from1 = f.route(1, "10.1.0.0/16", 1, 111);
  VpnRoute from2 = f.route(1, "10.1.0.0/16", 2, 222);
  from2.local_pref = 200;
  bgp.originate(1, from1);
  bgp.originate(2, from2);
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  EXPECT_EQ(bgp.best(0, key)->next_hop_node, 2u);  // higher local-pref

  // Tie on local_pref → lower originator id wins.
  VpnRoute tie = f.route(2, "10.9.0.0/16", 1, 11);
  VpnRoute tie2 = f.route(2, "10.9.0.0/16", 2, 22);
  bgp.originate(1, tie);
  bgp.originate(2, tie2);
  f.topo.scheduler().run();
  const VpnRouteKey key2{RouteDistinguisher{65000, 2},
                         ip::Prefix::must_parse("10.9.0.0/16")};
  EXPECT_EQ(bgp.best(0, key2)->next_hop_node, 1u);
}

TEST(Bgp, OverlappingPrefixesDistinctByRd) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 2; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 100));
  bgp.originate(0, f.route(2, "10.1.0.0/16", 0, 200));  // same prefix, RD 2
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.loc_rib_size(1), 2u);
  const VpnRouteKey k1{RouteDistinguisher{65000, 1},
                       ip::Prefix::must_parse("10.1.0.0/16")};
  const VpnRouteKey k2{RouteDistinguisher{65000, 2},
                       ip::Prefix::must_parse("10.1.0.0/16")};
  EXPECT_EQ(bgp.best(1, k1)->vpn_label, 100u);
  EXPECT_EQ(bgp.best(1, k2)->vpn_label, 200u);
}

TEST(Bgp, ObserverFiresOnChangeOnly) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 2; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  int events = 0;
  bgp.on_route([&](ip::NodeId, const VpnRoute&, bool) { ++events; });
  f.import_all(bgp);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const int after_first = events;
  EXPECT_EQ(after_first, 2);  // once at origin, once at peer
  // Re-originating the identical route changes nothing.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  EXPECT_EQ(events, after_first);
}

TEST(Bgp, FailSpeakerFlushesItsRoutesEverywhere) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  EXPECT_EQ(bgp.session_count(), 3u);
  // Speaker 0 and 1 both offer the same prefix; 0 wins on originator id.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 100));
  bgp.originate(1, f.route(1, "10.1.0.0/16", 1, 111));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  ASSERT_EQ(bgp.best(2, key)->next_hop_node, 0u);

  bgp.fail_speaker(0);
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.session_count(), 1u);  // only 1-2 remains
  // Speaker 2 fails over to the surviving origin synchronously.
  ASSERT_TRUE(bgp.best(2, key).has_value());
  EXPECT_EQ(bgp.best(2, key)->next_hop_node, 1u);
}

TEST(Bgp, ConfigErrors) {
  BgpFixture f;
  Bgp mesh(f.cp, Bgp::Mode::kFullMesh);
  EXPECT_THROW(mesh.add_route_reflector(0), std::logic_error);
  Bgp rr(f.cp, Bgp::Mode::kRouteReflector);
  EXPECT_THROW(rr.start(), std::logic_error);  // no reflectors configured
}

TEST(Igp, EcmpFindsAllEqualCostFirstHops) {
  // Square: a-b-d and a-c-d, all cost 1 → two first hops toward d.
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b, 1);
  f.link(a, c, 1);
  f.link(b, d, 1);
  f.link(c, d, 1);
  f.converge();
  const auto hops = f.igp.next_hops_ecmp(a.id(), d.id());
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].via, b.id());  // sorted by neighbor id
  EXPECT_EQ(hops[1].via, c.id());
  EXPECT_EQ(hops[0].cost, 2u);
  // Unequal costs collapse to a single hop.
  const auto to_b = f.igp.next_hops_ecmp(a.id(), b.id());
  EXPECT_EQ(to_b.size(), 1u);
}

TEST(Igp, EcmpThroughSharedUpstream) {
  // a-b, then b-c / b-d / c-e / d-e: two equal paths a→e, both via b.
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  auto& e = f.add("e");
  f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(b, d, 1);
  f.link(c, e, 1);
  f.link(d, e, 1);
  f.converge();
  // The split happens beyond b; a's first-hop set toward e is just {b}.
  const auto at_a = f.igp.next_hops_ecmp(a.id(), e.id());
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].via, b.id());
  // b itself balances over c and d.
  const auto at_b = f.igp.next_hops_ecmp(b.id(), e.id());
  EXPECT_EQ(at_b.size(), 2u);
}

TEST(Igp, PartitionedGraphHasNoRoute) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  auto& d = f.add("d");
  f.link(a, b);
  f.link(c, d);  // island
  f.converge();
  EXPECT_NE(f.igp.next_hop(a.id(), b.id()), nullptr);
  EXPECT_EQ(f.igp.next_hop(a.id(), c.id()), nullptr);
  EXPECT_FALSE(f.igp.path(a.id(), d.id()).found());
}

TEST(Igp, SubscriptionFactorScalesReservable) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  const net::LinkId l = f.link(a, b, 1, 10e6);
  f.igp.set_te_subscription_factor(0.5);
  f.converge();
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), l), 5e6);
  EXPECT_FALSE(f.igp.te_reserve(a.id(), l, 6e6));
  EXPECT_TRUE(f.igp.te_reserve(a.id(), l, 5e6));
}

TEST(Igp, SpfCallbacksFire) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  f.link(a, b);
  int fired = 0;
  f.igp.on_spf([&](ip::NodeId) { ++fired; });
  f.converge();
  EXPECT_GE(fired, 2);  // at least one SPF per router
}

TEST(Bgp, TwoReflectorsGiveRedundantPropagation) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  for (ip::NodeId n = 0; n < 6; ++n) {
    f.topo.add_node<Router>("n" + std::to_string(n), Role::kPe);
  }
  for (ip::NodeId n = 0; n < 4; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(4);
  bgp.add_route_reflector(5);
  f.import_all(bgp);
  bgp.start();
  // 4 clients x 2 RRs + RR-RR = 9 sessions.
  EXPECT_EQ(bgp.session_count(), 9u);
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 1; n < 4; ++n) {
    ASSERT_TRUE(bgp.best(n, key).has_value());
    // Each client holds the route from both reflectors in its Adj-RIB-In.
    EXPECT_EQ(bgp.adj_rib_in_size(n), 2u);
  }
}

TEST(Bgp, LocRibSnapshot) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 2; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  bgp.originate(0, f.route(1, "10.2.0.0/16", 0));
  f.topo.scheduler().run();
  EXPECT_EQ(bgp.loc_rib(1).size(), 2u);
  EXPECT_EQ(bgp.speakers().size(), 2u);
}

TEST(ControlPlane, SessionDelayConfigurable) {
  net::Topology topo;
  topo.add_node<Router>("a", Role::kP);
  topo.add_node<Router>("b", Role::kP);
  ControlPlane cp(topo);
  cp.set_session_delay(50 * sim::kMillisecond);
  cp.set_processing_delay(0);
  sim::SimTime delivered_at = 0;
  cp.send_session(0, 1, "t", 1,
                  [&] { delivered_at = topo.scheduler().now(); });
  topo.scheduler().run();
  EXPECT_EQ(delivered_at, 50 * sim::kMillisecond);
}

TEST(Lsa, WireBytesScaleWithLinks) {
  Lsa lsa;
  EXPECT_EQ(lsa.wire_bytes(), 24u);
  lsa.links.resize(3);
  EXPECT_EQ(lsa.wire_bytes(), 24u + 48u);
}

TEST(ControlPlane, ProcessingDelayAddsToAdjacentDelivery) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  net::LinkConfig cfg;
  cfg.prop_delay = 5 * sim::kMillisecond;
  topo.connect(a.id(), b.id(), cfg);
  ControlPlane cp(topo);
  cp.set_processing_delay(2 * sim::kMillisecond);
  sim::SimTime at = 0;
  cp.send_adjacent(a.id(), b.id(), "t", 1,
                   [&] { at = topo.scheduler().now(); });
  topo.scheduler().run();
  EXPECT_EQ(at, 7 * sim::kMillisecond);
}

TEST(Hello, DetectsLinkFailureWithinIntervalTimesThreshold) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1);
  f.link(b, c, 1);
  f.link(a, c, 5);
  f.converge();

  HelloProtocol hello(f.cp);
  hello.enroll_link(ab);
  std::vector<net::LinkId> downs;
  hello.on_link_down([&](net::LinkId l) {
    downs.push_back(l);
    f.igp.notify_link_change(l);  // the usual wiring
  });
  hello.start(20 * sim::kMillisecond, 3);

  f.topo.run_until(f.topo.scheduler().now() + 200 * sim::kMillisecond);
  EXPECT_TRUE(downs.empty());
  EXPECT_GT(hello.hellos_sent(), 10u);

  const sim::SimTime break_at = f.topo.scheduler().now();
  f.topo.link(ab).set_up(false);
  f.topo.run_until(break_at + 500 * sim::kMillisecond);
  ASSERT_EQ(downs.size(), 1u);  // declared exactly once
  EXPECT_EQ(downs[0], ab);
  EXPECT_TRUE(hello.is_down(ab));
  // Detection took ~interval x threshold, and the IGP rerouted.
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, c.id());
}

TEST(Hello, QuietOnHealthyLinks) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  const net::LinkId ab = f.link(a, b);
  f.converge();
  HelloProtocol hello(f.cp);
  hello.enroll_link(ab);
  int downs = 0;
  hello.on_link_down([&](net::LinkId) { ++downs; });
  hello.start(10 * sim::kMillisecond, 2);
  f.topo.run_until(f.topo.scheduler().now() + sim::kSecond);
  EXPECT_EQ(downs, 0);
  EXPECT_EQ(hello.links_declared_down(), 0u);
}

// --- PR10: packed update groups, compact RIB, incremental SPF --------------

TEST(RtSetPool, InternDedupes) {
  RtSetPool pool;
  const std::vector<RouteTarget> a{{65000, 1}, {65000, 2}};
  const std::vector<RouteTarget> b{{65000, 9}};
  const std::uint16_t ia = pool.intern(a);
  EXPECT_EQ(pool.intern(a), ia);  // same set, same id
  const std::uint16_t ib = pool.intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.get(ia), a);
  EXPECT_EQ(pool.get(ib), b);
  EXPECT_GT(pool.bytes(), 0u);
}

TEST(AdjRibIn, UpsertEraseAndSenderSweep) {
  AdjRibIn rib;
  CompactRoute r;
  r.vpn_label = 7;
  // Ids arrive out of order, so the head vector grows past ids it has not
  // seen yet.
  for (NlriId id = 200; id-- > 0;) rib.upsert(id, 1, r);
  EXPECT_EQ(rib.key_count(), 200u);
  EXPECT_EQ(rib.route_count(), 200u);
  // Second sender on one key; replacement is in-place.
  rib.upsert(5, 2, r);
  EXPECT_EQ(rib.route_count(), 201u);
  CompactRoute r2 = r;
  r2.vpn_label = 8;
  rib.upsert(5, 2, r2);
  EXPECT_EQ(rib.route_count(), 201u);
  int seen = 0;
  std::uint32_t label_from_2 = 0;
  rib.for_each(5, [&](ip::NodeId sender, const CompactRoute& rr) {
    ++seen;
    if (sender == 2) label_from_2 = rr.vpn_label;
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(label_from_2, 8u);

  EXPECT_TRUE(rib.erase(7, 1));
  EXPECT_FALSE(rib.erase(7, 1));    // already gone
  EXPECT_FALSE(rib.erase(900, 1));  // an id past every head
  const auto affected = rib.erase_sender(1);
  EXPECT_EQ(affected.size(), 199u);  // all but the erased id 7
  EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));
  EXPECT_EQ(rib.route_count(), 1u);  // only sender 2's offer on id 5
  EXPECT_EQ(rib.key_count(), 1u);
  EXPECT_GT(rib.bytes(), 0u);
}

TEST(NlriTable, InternsDenseIdsAndFindsWithoutInterning) {
  NlriTable table;
  auto key = [](std::uint32_t n) {
    return VpnRouteKey{RouteDistinguisher{65000, n},
                       ip::Prefix(ip::Ipv4Address(10, 0, 0, 0), 16)};
  };
  // Enough keys to force at least one growth past the 64-slot start.
  for (std::uint32_t n = 0; n < 200; ++n) {
    EXPECT_EQ(table.intern(key(1000 - n)), n);  // first-intern order
  }
  EXPECT_EQ(table.intern(key(1000)), 0u);  // same key, same id
  EXPECT_EQ(table.find(key(999)), 1u);
  EXPECT_EQ(table.key(1), key(999));
  EXPECT_EQ(table.find(key(5)), kNoNlri);
  EXPECT_EQ(table.size(), 200u);  // find interned nothing
  EXPECT_GT(table.bytes(), 0u);
}

TEST(Bgp, WithdrawOnlyFlushBytesDeriveFromPrefix) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  // One single-key withdraw-only message per peer, counted as a withdraw:
  // header (19) + RD/label/length (12) + the /16's two prefix bytes.
  EXPECT_EQ(f.cp.message_count("bgp.withdraw"), 2u);
  EXPECT_EQ(kBgpHeaderBytes + vpn_nlri_wire_bytes(key), 19u + 12u + 2u);
  EXPECT_EQ(f.cp.byte_count("bgp.withdraw"),
            2 * (kBgpHeaderBytes + vpn_nlri_wire_bytes(key)));
}

TEST(Bgp, RrScriptConvergesToGoldenRibs) {
  // An announce / same-tick withdraw+replace / speaker-failure script on a
  // 6-client, 2-RR fabric must end in the Loc-RIBs recorded in
  // tests/golden/loc_rib.txt, with no more session messages than recorded.
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  constexpr ip::NodeId kClients = 6;
  for (ip::NodeId n = 0; n < kClients + 2; ++n) {
    f.topo.add_node<Router>("n" + std::to_string(n), Role::kPe);
  }
  for (ip::NodeId n = 0; n < kClients; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(kClients);
  bgp.add_route_reflector(kClients + 1);
  f.import_all(bgp);
  bgp.start();

  // Multihomed prefixes, flaps, a withdraw, and a mid-stream failure.
  for (ip::NodeId n = 0; n < kClients; ++n) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      bgp.originate(n, f.route(p + 1, ("10." + std::to_string(p + 1) +
                                       ".0.0/16").c_str(),
                               n, 100 * n + p));
    }
  }
  f.topo.scheduler().run();
  // Same-tick withdraw + replace (flush-window supersede on the packed path).
  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 999));
  f.topo.scheduler().run();
  bgp.fail_speaker(1);
  f.topo.scheduler().run();

  golden::Fnv fp;
  for (ip::NodeId n = 0; n < kClients + 2; ++n) {
    golden::mix_loc_rib(fp, n, bgp.loc_rib(n));
  }
  const std::uint64_t messages = f.cp.message_count("bgp.update") +
                                 f.cp.message_count("bgp.withdraw");
  const std::vector<std::string> golden_row =
      golden::row("loc_rib.txt", "rr_script");
  ASSERT_EQ(golden_row.size(), 2u);
  EXPECT_EQ(fp.hex(), golden_row[0]);
  EXPECT_LE(messages, std::stoull(golden_row[1]));
}

TEST(Bgp, WithdrawThenReplaceInOneFlushWindowYieldsReplacement) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 100));
  f.topo.scheduler().run();
  // Withdraw and replacement land in the same flush window: the queued
  // withdraw is superseded in place and only the replacement reaches peers.
  bgp.withdraw(0, RouteDistinguisher{65000, 1},
               ip::Prefix::must_parse("10.1.0.0/16"));
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0, 200));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 0; n < 3; ++n) {
    const std::optional<VpnRoute> best = bgp.best(n, key);
    ASSERT_TRUE(best.has_value()) << "speaker " << n;
    EXPECT_EQ(best->vpn_label, 200u) << "speaker " << n;
  }
  EXPECT_GT(bgp.rib_out().superseded(), 0u);
}

TEST(Bgp, ReflectionTerminatesUnderPacking) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kRouteReflector);
  for (ip::NodeId n = 0; n < 6; ++n) {
    f.topo.add_node<Router>("n" + std::to_string(n), Role::kPe);
  }
  for (ip::NodeId n = 0; n < 4; ++n) bgp.add_speaker(n);
  bgp.add_route_reflector(4);
  bgp.add_route_reflector(5);
  f.import_all(bgp);
  bgp.start();
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();  // returning at all proves no reflection loop
  const std::uint64_t settled = f.cp.total_messages();
  // Each client holds the route once per RR, never more (no echo back).
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  for (ip::NodeId n = 1; n < 4; ++n) {
    ASSERT_TRUE(bgp.best(n, key).has_value());
    EXPECT_EQ(bgp.adj_rib_in_size(n), 2u);
  }
  // Re-announcing the identical route is fully damped: no new messages.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  EXPECT_EQ(f.cp.total_messages(), settled);
}

TEST(Bgp, FailSpeakerKillsItsQueuedUpdates) {
  BgpFixture f;
  Bgp bgp(f.cp, Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) {
    f.topo.add_node<Router>("pe" + std::to_string(n), Role::kPe);
    bgp.add_speaker(n);
  }
  f.import_all(bgp);
  bgp.start();
  // Queued at pe0 but the speaker dies before its flush event fires: the
  // update dies with the sessions, exactly like an un-ACKed TCP send.
  bgp.originate(0, f.route(1, "10.1.0.0/16", 0));
  EXPECT_TRUE(bgp.rib_out().armed(0));
  bgp.fail_speaker(0);
  EXPECT_FALSE(bgp.rib_out().armed(0));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  EXPECT_FALSE(bgp.best(1, key).has_value());
  EXPECT_FALSE(bgp.best(2, key).has_value());
  // A live speaker whose flush targets the dead peer skips it cleanly.
  bgp.originate(1, f.route(2, "10.2.0.0/16", 1));
  f.topo.scheduler().run();
  const VpnRouteKey key2{RouteDistinguisher{65000, 2},
                         ip::Prefix::must_parse("10.2.0.0/16")};
  ASSERT_TRUE(bgp.best(2, key2).has_value());
  EXPECT_FALSE(bgp.best(0, key2).has_value());  // dead peer never hears of it
}

// --- Dense MP-BGP: NLRI ids, node-indexed speakers, id-indexed RIBs -------

/// PEs 0-2 in a full mesh, or as clients of reflector 3.
std::unique_ptr<Bgp> three_pe_fabric(BgpFixture& f, bool reflected) {
  for (ip::NodeId n = 0; n < 4; ++n) {
    f.topo.add_node<Router>("n" + std::to_string(n), Role::kPe);
  }
  auto bgp = std::make_unique<Bgp>(
      f.cp, reflected ? Bgp::Mode::kRouteReflector : Bgp::Mode::kFullMesh);
  for (ip::NodeId n = 0; n < 3; ++n) bgp->add_speaker(n);
  if (reflected) bgp->add_route_reflector(3);
  BgpFixture::import_all(*bgp);
  bgp->start();
  return bgp;
}

TEST(Bgp, LocalPrefChangeAloneIsAdvertised) {
  // Re-originating a key with only its local_pref raised must replace the
  // best everywhere, or a later, weaker offer wins on stale state.
  for (const bool reflected : {false, true}) {
    BgpFixture f;
    const auto bgp = three_pe_fabric(f, reflected);
    const VpnRouteKey key{RouteDistinguisher{65000, 1},
                          ip::Prefix::must_parse("10.1.0.0/16")};
    VpnRoute k = f.route(1, "10.1.0.0/16", 0, 100);
    bgp->originate(0, k);
    f.topo.scheduler().run();
    const std::uint64_t settled = f.cp.message_count("bgp.update");

    k.local_pref = 300;
    bgp->originate(0, k);
    f.topo.scheduler().run();
    ASSERT_TRUE(bgp->best(0, key).has_value());
    EXPECT_EQ(bgp->best(0, key)->local_pref, 300u) << reflected;
    EXPECT_GT(f.cp.message_count("bgp.update"), settled) << reflected;

    VpnRoute weaker = f.route(1, "10.1.0.0/16", 1, 111);
    weaker.local_pref = 200;
    bgp->originate(1, weaker);
    f.topo.scheduler().run();
    for (ip::NodeId n = 0; n < 3; ++n) {
      const std::optional<VpnRoute> best = bgp->best(n, key);
      ASSERT_TRUE(best.has_value()) << reflected << " speaker " << n;
      EXPECT_EQ(best->originator, 0u) << reflected << " speaker " << n;
      EXPECT_EQ(best->local_pref, 300u) << reflected << " speaker " << n;
    }
  }
}

TEST(Bgp, WithdrawOfUnknownKeyIsANoOp) {
  BgpFixture f;
  const auto bgp = three_pe_fabric(f, false);
  bgp->originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  const std::size_t interned = bgp->nlri_count();
  const std::uint64_t messages = f.cp.total_messages();
  const VpnRouteKey never{RouteDistinguisher{65000, 9},
                          ip::Prefix::must_parse("10.9.0.0/16")};
  bgp->withdraw(0, never.first, never.second);
  f.topo.scheduler().run();
  EXPECT_EQ(bgp->nlri_count(), interned);
  EXPECT_EQ(bgp->nlri_id(never), kNoNlri);
  EXPECT_EQ(f.cp.total_messages(), messages);
  EXPECT_FALSE(bgp->best(1, never).has_value());  // unknown key: no route
  EXPECT_EQ(bgp->loc_rib_size(1), 1u);
}

TEST(Bgp, FailSpeakerReDecidesInKeyOrderNotInternOrder) {
  BgpFixture f;
  const auto bgp = three_pe_fabric(f, false);
  // Interned in descending key order: RD 3 before RD 2, /16s before the
  // /8 they share an RD with.
  const std::vector<std::pair<std::uint32_t, const char*>> keys{
      {3, "10.1.0.0/16"}, {2, "10.9.0.0/16"}, {2, "10.5.0.0/16"},
      {2, "10.0.0.0/8"}};
  for (const auto& [rd, prefix] : keys) {
    bgp->originate(1, f.route(rd, prefix, 1));
  }
  f.topo.scheduler().run();
  std::vector<VpnRouteKey> withdrawn_at_2;
  bgp->on_route([&](ip::NodeId at, const VpnRoute& r, bool withdrawn) {
    if (at == 2 && withdrawn) withdrawn_at_2.emplace_back(r.rd, r.prefix);
  });
  bgp->fail_speaker(1);
  ASSERT_EQ(withdrawn_at_2.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(withdrawn_at_2.begin(), withdrawn_at_2.end()));
  EXPECT_EQ(withdrawn_at_2.front().second, ip::Prefix::must_parse("10.0.0.0/8"));
  EXPECT_EQ(withdrawn_at_2.back().first.assigned, 3u);
  // loc_rib() is in key order too.
  bgp->originate(0, f.route(3, "10.1.0.0/16", 0));
  bgp->originate(0, f.route(2, "10.2.0.0/16", 0));
  f.topo.scheduler().run();
  const std::vector<VpnRoute> rib = bgp->loc_rib(2);
  ASSERT_EQ(rib.size(), 2u);
  EXPECT_EQ(rib[0].rd.assigned, 2u);
  EXPECT_EQ(rib[1].rd.assigned, 3u);
}

TEST(Bgp, PerSpeakerQueriesThrowForNonSpeakers) {
  BgpFixture f;
  const auto bgp = three_pe_fabric(f, true);
  const VpnRouteKey key{RouteDistinguisher{65000, 1},
                        ip::Prefix::must_parse("10.1.0.0/16")};
  bgp->originate(0, f.route(1, "10.1.0.0/16", 0));
  f.topo.scheduler().run();
  EXPECT_TRUE(bgp->best(3, key).has_value());  // the reflector holds a Loc-RIB
  f.topo.add_node<Router>("p", Role::kP);  // node 4: in the topology only
  for (const ip::NodeId stranger :
       {ip::NodeId{4}, static_cast<ip::NodeId>(f.topo.node_count()),
        ip::NodeId{1000}}) {
    EXPECT_THROW((void)bgp->best(stranger, key), std::out_of_range);
    EXPECT_THROW((void)bgp->loc_rib_size(stranger), std::out_of_range);
    EXPECT_THROW((void)bgp->adj_rib_in_size(stranger), std::out_of_range);
    EXPECT_THROW((void)bgp->loc_rib(stranger), std::out_of_range);
    EXPECT_THROW(bgp->originate(stranger, f.route(1, "10.1.0.0/16", 0)),
                 std::out_of_range);
    EXPECT_FALSE(bgp->is_reflector(stranger));
  }
  const VpnRouteKey unknown{RouteDistinguisher{65000, 7},
                            ip::Prefix::must_parse("10.7.0.0/16")};
  EXPECT_FALSE(bgp->best(0, unknown).has_value());
}

bool same_route(const VpnRoute& a, const VpnRoute& b) {
  return a.rd == b.rd && a.prefix == b.prefix && a.next_hop == b.next_hop &&
         a.next_hop_node == b.next_hop_node && a.vpn_label == b.vpn_label &&
         a.route_targets == b.route_targets && a.local_pref == b.local_pref &&
         a.originator == b.originator;
}

TEST(Bgp, ObserversSeeExactRouteTargetsAcrossBestPathChanges) {
  // Observers read one route that decide() rebuilds in place. Moving a
  // best path from 3 route targets to 1 and back, then withdrawing it,
  // must hand every observer exactly Bgp::best() — no stale RTs — and
  // leave each VRF importing exactly what that route's RTs select.
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 3;
  backbone::MplsBackbone bb(cfg);
  std::vector<vpn::VpnId> vpns;
  for (const char* name : {"A", "B", "C"}) {
    vpns.push_back(bb.service.create_vpn(name));
  }
  for (std::size_t pe = 0; pe < 3; ++pe) {
    for (std::size_t v = 0; v < vpns.size(); ++v) {
      bb.add_site(vpns[v], pe,
                  ip::Prefix::must_parse("172.16." +
                                         std::to_string(pe * 3 + v) + ".0/24"));
    }
  }
  bb.start_and_converge();

  struct Seen {
    VpnRoute route;
    bool withdrawn = false;
  };
  // Two observers after the service's own, each keeping its last event
  // per speaker.
  std::vector<std::vector<std::optional<Seen>>> seen(2);
  for (std::size_t o = 0; o < seen.size(); ++o) {
    seen[o].resize(bb.topo.node_count());
    bb.bgp.on_route(
        [&seen, o](ip::NodeId at, const VpnRoute& r, bool withdrawn) {
          seen[o][at] = Seen{r, withdrawn};
        });
  }

  const ip::Prefix prefix = ip::Prefix::must_parse("10.77.0.0/16");
  const RouteDistinguisher rd{65000, 77};
  const VpnRouteKey key{rd, prefix};
  // PE1 (re-)originates the key with the RTs of `targets`.
  auto offer = [&](std::vector<vpn::VpnId> targets) {
    VpnRoute r;
    r.rd = rd;
    r.prefix = prefix;
    r.next_hop = bb.pe(1).loopback();
    r.next_hop_node = bb.pe(1).id();
    r.vpn_label = 501;
    for (vpn::VpnId v : targets) r.route_targets.push_back(bb.service.rt_of(v));
    bb.bgp.originate(bb.pe(1).id(), r);
    bb.topo.scheduler().run();
  };
  auto check = [&](const std::string& step, std::size_t expected_rts) {
    for (ip::NodeId s : bb.bgp.speakers()) {
      const std::optional<VpnRoute> best = bb.bgp.best(s, key);
      if (best) {
        EXPECT_EQ(best->route_targets.size(), expected_rts) << step << " " << s;
      }
      for (std::size_t o = 0; o < seen.size(); ++o) {
        const std::optional<Seen>& last = seen[o][s];
        ASSERT_TRUE(last.has_value()) << step << " observer " << o << " " << s;
        EXPECT_EQ(last->withdrawn, !best.has_value()) << step << " " << s;
        if (best) {
          EXPECT_TRUE(same_route(last->route, *best))
              << step << " observer " << o << " speaker " << s;
        }
      }
    }
    for (vpn::Router* pe : bb.pes()) {
      const std::optional<VpnRoute> best = bb.bgp.best(pe->id(), key);
      for (const vpn::Vrf* vrf : pe->vrfs()) {
        const bool want = best.has_value() &&
                          best->next_hop_node != pe->id() &&
                          vrf->imports(*best);
        const ip::RouteEntry* e = vrf->table().find(prefix);
        EXPECT_EQ(e != nullptr, want)
            << step << " " << pe->name() << " vrf " << vrf->config().name;
        if (e != nullptr && want) {
          EXPECT_EQ(e->egress_pe, best->next_hop_node) << step;
          EXPECT_EQ(e->vpn_label, best->vpn_label) << step;
        }
      }
    }
  };

  // One originator replaces its route, so every speaker's best path moves
  // 3 RTs -> 1 RT -> 3 RTs: the rebuilt route shrinks, then regrows in
  // place. (Two competing originators would test something else: in a
  // full mesh a PE whose own route loses to a peer's never withdraws it.)
  offer({vpns[0], vpns[1], vpns[2]});
  check("three RTs", 3);
  offer({vpns[1]});
  check("one RT", 1);
  offer({vpns[2], vpns[0], vpns[1]});
  check("back to three RTs", 3);
  bb.bgp.withdraw(bb.pe(1).id(), rd, prefix);
  bb.topo.scheduler().run();
  check("withdrawn", 0);
}

TEST(Bgp, OneVpnPeStateScalesWithItsVpnNotTheGlobalNlriCount) {
  // 2 or 16 VPNs, each on its own pair of PEs with 8 sites, behind 2
  // reflectors. PE0 serves one VPN: its Loc-RIB, Adj-RIB-In and importer
  // index hold that VPN's 8 keys whatever the global NLRI count.
  struct Footprint {
    std::size_t nlri = 0;
    std::size_t rows = 0;
    std::size_t rib_bytes = 0;
    std::size_t importer_bytes = 0;
  };
  auto measure = [](std::size_t vpns) {
    backbone::BackboneConfig cfg;
    cfg.p_count = 2;
    cfg.pe_count = 2 * vpns;
    cfg.bgp_mode = Bgp::Mode::kRouteReflector;
    cfg.route_reflector_count = 2;
    backbone::MplsBackbone bb(cfg);
    for (std::size_t v = 0; v < vpns; ++v) {
      const vpn::VpnId id = bb.service.create_vpn("V" + std::to_string(v));
      for (std::size_t site = 0; site < 8; ++site) {
        bb.add_site(id, 2 * v + site % 2,
                    ip::Prefix(ip::Ipv4Address(10, std::uint8_t(v),
                                               std::uint8_t(site), 0),
                               24));
      }
    }
    bb.start_and_converge();
    const ip::NodeId pe0 = bb.pe(0).id();
    EXPECT_EQ(bb.bgp.loc_rib_size(pe0), 8u);
    return Footprint{bb.bgp.nlri_count(), bb.bgp.row_count(pe0),
                     bb.bgp.rib_bytes(pe0), bb.service.importer_bytes(pe0)};
  };
  const Footprint small = measure(2);
  const Footprint large = measure(16);
  EXPECT_EQ(small.nlri, 16u);
  EXPECT_EQ(large.nlri, 128u);
  EXPECT_EQ(small.rows, 8u);
  EXPECT_EQ(large.rows, 8u);
  EXPECT_GT(small.rib_bytes, 0u);
  EXPECT_EQ(large.rib_bytes, small.rib_bytes);
  EXPECT_GT(small.importer_bytes, 0u);
  EXPECT_EQ(large.importer_bytes, small.importer_bytes);
}

TEST(Bgp, ObserverThatReentersDecideThrows) {
  BgpFixture f;
  const auto bgp = three_pe_fabric(f, false);
  bool reenter = true;
  bgp->on_route([&](ip::NodeId at, const VpnRoute&, bool withdrawn) {
    if (reenter && at == 0 && !withdrawn) {
      bgp->originate(0, f.route(2, "10.2.0.0/16", 0));
    }
  });
  EXPECT_THROW(bgp->originate(0, f.route(1, "10.1.0.0/16", 0)),
               std::logic_error);
  reenter = false;  // the guard resets once the observer call unwinds
  EXPECT_NO_THROW(bgp->originate(0, f.route(3, "10.3.0.0/16", 0)));
  f.topo.scheduler().run();
  const VpnRouteKey key{RouteDistinguisher{65000, 3},
                        ip::Prefix::must_parse("10.3.0.0/16")};
  EXPECT_TRUE(bgp->best(2, key).has_value());
}

TEST(Igp, TeOnlyChangeSkipsSpfEntirely) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  const net::LinkId ab = f.link(a, b, 1, 10e6);
  f.link(b, c, 1, 10e6);
  f.converge();
  const auto runs_before = f.igp.spf_runs();
  const auto te_before = f.igp.te_only_installs();
  // A reservation re-floods TE attributes but cannot move shortest paths:
  // the installs are classified TE-only and never reach the SPF scheduler.
  ASSERT_TRUE(f.igp.te_reserve(a.id(), ab, 4e6));
  f.topo.scheduler().run();
  EXPECT_EQ(f.igp.spf_runs(), runs_before);
  EXPECT_GT(f.igp.te_only_installs(), te_before);
  // The flood itself still happened: CSPF sees the new reservable figure.
  EXPECT_DOUBLE_EQ(f.igp.te_reservable(a.id(), ab), 6e6);
}

TEST(Igp, OffPathCostIncreaseSkipsSpfEverywhere) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1);
  f.link(b, c, 1);
  const net::LinkId ac = f.link(a, c, 5);  // never on a shortest path
  f.converge();
  Igp::SpfCounters before[3];
  for (int i = 0; i < 3; ++i) {
    before[i] = f.igp.router_spf_counters(f.routers[i]->id());
  }
  // 5 → 9: still worse than the 2-hop path, provably affects nothing.
  f.topo.link(ac).set_igp_cost(9);
  f.igp.notify_link_change(ac);
  f.topo.scheduler().run();
  for (int i = 0; i < 3; ++i) {
    const auto after = f.igp.router_spf_counters(f.routers[i]->id());
    EXPECT_EQ(after.full, before[i].full) << "router " << i;
    EXPECT_EQ(after.incremental, before[i].incremental) << "router " << i;
    EXPECT_GT(after.skipped, before[i].skipped) << "router " << i;
  }
  // Routing is untouched.
  EXPECT_EQ(f.igp.next_hop(a.id(), c.id())->via, b.id());
}

TEST(Igp, CostDecreaseRunsIncrementalAndReroutes) {
  IgpFixture f;
  auto& a = f.add("a");
  auto& b = f.add("b");
  auto& c = f.add("c");
  f.link(a, b, 1);
  f.link(b, c, 1);
  const net::LinkId ac = f.link(a, c, 5);
  f.converge();
  ASSERT_EQ(f.igp.next_hop(a.id(), c.id())->via, b.id());
  const auto full_before = f.igp.spf_full_runs();
  const auto incr_before = f.igp.spf_incremental_runs();
  f.topo.link(ac).set_igp_cost(1);
  f.igp.notify_link_change(ac);
  f.topo.scheduler().run();
  // Decrease-only change: seeded partial runs, zero full rebuilds.
  EXPECT_EQ(f.igp.spf_full_runs(), full_before);
  EXPECT_GT(f.igp.spf_incremental_runs(), incr_before);
  const auto* nh = f.igp.next_hop(a.id(), c.id());
  ASSERT_NE(nh, nullptr);
  EXPECT_EQ(nh->via, c.id());
  EXPECT_EQ(nh->cost, 1u);
}

TEST(Igp, IncrementalMatchesColdConvergenceAcrossFlapSequence) {
  // Flap a topology with ECMP and a detour, then compare every router's
  // next hops toward every destination with a fresh copy built directly at
  // the final costs and converged cold (which runs only full rebuilds).
  struct Costs {
    std::uint32_t ab, de, ae;
  };
  auto build = [](Costs c) {
    auto f = std::make_unique<IgpFixture>();
    auto& a = f->add("a");
    auto& b = f->add("b");
    auto& cc = f->add("c");
    auto& d = f->add("d");
    auto& e = f->add("e");
    f->link(a, b, c.ab);
    f->link(a, cc, 1);
    f->link(b, d, 1);
    f->link(cc, d, 1);
    f->link(d, e, c.de);
    f->link(a, e, c.ae);
    f->converge();
    return f;
  };
  const auto incremental = build(Costs{1, 2, 9});
  // Links in creation order: ab = 0, de = 4, ae = 5. Decrease onto the
  // shortest path, increase off it, then break a tie.
  for (const auto& [link, cost] :
       {std::pair<net::LinkId, std::uint32_t>{5, 2}, {4, 7}, {0, 3}}) {
    incremental->topo.link(link).set_igp_cost(cost);
    incremental->igp.notify_link_change(link);
    incremental->topo.scheduler().run();
  }
  const auto full = build(Costs{3, 7, 2});
  for (const auto* src : incremental->routers) {
    for (const auto* dst : incremental->routers) {
      if (src == dst) continue;
      const auto inc = incremental->igp.next_hops_ecmp(src->id(), dst->id());
      const auto ref = full->igp.next_hops_ecmp(src->id(), dst->id());
      ASSERT_EQ(inc.size(), ref.size())
          << src->name() << "->" << dst->name();
      for (std::size_t i = 0; i < inc.size(); ++i) {
        EXPECT_EQ(inc[i].via, ref[i].via)
            << src->name() << "->" << dst->name();
        EXPECT_EQ(inc[i].cost, ref[i].cost)
            << src->name() << "->" << dst->name();
      }
    }
  }
  // The flapped run actually took the fast paths at least once; the cold
  // reference never did.
  EXPECT_GT(incremental->igp.spf_incremental_runs() +
                incremental->igp.spf_skipped(),
            0u);
  EXPECT_EQ(full->igp.spf_incremental_runs(), 0u);
}

TEST(RdRt, Formatting) {
  EXPECT_EQ((RouteDistinguisher{65000, 7}).to_string(), "65000:7");
  EXPECT_EQ((RouteTarget{65000, 9}).to_string(), "65000:9");
  VpnRoute r;
  r.route_targets = {RouteTarget{1, 2}, RouteTarget{3, 4}};
  EXPECT_TRUE(r.has_target(RouteTarget{3, 4}));
  EXPECT_FALSE(r.has_target(RouteTarget{3, 5}));
}

}  // namespace
}  // namespace mvpn::routing
