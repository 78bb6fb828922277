#include <gtest/gtest.h>

#include <utility>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue_disc.hpp"
#include "net/topology.hpp"

namespace mvpn::net {
namespace {

/// Minimal node that records everything it receives.
class SinkNode : public Node {
 public:
  using Node::Node;
  void receive(PacketPtr p, ip::IfIndex in_if) override {
    last_in_if = in_if;
    received.push_back(std::move(p));
  }
  std::vector<PacketPtr> received;
  ip::IfIndex last_in_if = ip::kInvalidIf;
};

PacketPtr make_packet(Topology& topo, std::size_t payload = 472) {
  PacketPtr p = topo.packet_factory().make();
  p->ip.src = ip::Ipv4Address::must_parse("10.0.0.1");
  p->ip.dst = ip::Ipv4Address::must_parse("10.0.0.2");
  p->payload_bytes = payload;
  return p;
}

TEST(Packet, WireSizePlainIp) {
  Packet p;
  p.payload_bytes = 472;
  EXPECT_EQ(p.wire_size(), 20u + 8u + 472u);  // 500 bytes
}

TEST(Packet, WireSizeWithMplsStack) {
  Packet p;
  p.payload_bytes = 100;
  p.push_label(MplsShim{100, 5, 64});
  p.push_label(MplsShim{200, 5, 64});
  EXPECT_EQ(p.wire_size(), 128u + 2 * kMplsShimBytes);
}

TEST(Packet, WireSizeWithEsp) {
  Packet p;
  p.payload_bytes = 100;  // inner = 128, +2 trailer = 130 → pad 6 → 136
  EspEncap esp;
  esp.pad_bytes = 6;
  p.esp = esp;
  // overhead = outer 20 + 8 spi/seq + 8 IV + 6 pad + 2 trailer + 12 ICV = 56
  EXPECT_EQ(p.wire_size(), 128u + 56u);
}

TEST(Packet, WireSizeWithPvc) {
  Packet p;
  p.payload_bytes = 100;
  p.pvc = PvcEncap{9};
  EXPECT_EQ(p.wire_size(), 128u + kPvcEncapBytes);
}

TEST(Packet, LabelStackOps) {
  Packet p;
  p.push_label(MplsShim{100, 3, 64});
  p.push_label(MplsShim{200, 5, 64});
  EXPECT_EQ(p.top_label().label, 200u);
  p.swap_label(300);
  EXPECT_EQ(p.top_label().label, 300u);
  EXPECT_EQ(p.top_label().exp, 5);   // EXP preserved on swap
  EXPECT_EQ(p.top_label().ttl, 63);  // TTL decremented on swap
  const MplsShim popped = p.pop_label();
  EXPECT_EQ(popped.label, 300u);
  EXPECT_EQ(p.top_label().label, 100u);
  p.pop_label();
  EXPECT_FALSE(p.has_labels());
  EXPECT_THROW(p.pop_label(), std::logic_error);
  EXPECT_THROW(p.swap_label(1), std::logic_error);
}

TEST(Packet, VisibleDscpPrefersOuter) {
  Packet p;
  p.ip.dscp = 46;
  EXPECT_EQ(p.visible_dscp(), 46);
  EspEncap esp;
  esp.outer.dscp = 0;
  p.esp = esp;
  EXPECT_EQ(p.visible_dscp(), 0);  // encryption hid the inner marking
}

TEST(PacketFactory, UniqueIds) {
  Topology topo;
  auto a = topo.packet_factory().make();
  auto b = topo.packet_factory().make();
  EXPECT_NE(a->id, b->id);
  EXPECT_EQ(topo.packet_factory().issued(), 2u);
}

TEST(DropTailQueue, CapacityAndAccounting) {
  DropTailQueue q(2);
  Topology topo;
  EXPECT_TRUE(q.enqueue(make_packet(topo)));
  EXPECT_TRUE(q.enqueue(make_packet(topo)));
  EXPECT_FALSE(q.enqueue(make_packet(topo)));  // full
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.byte_count(), 1000u);
  EXPECT_EQ(q.dropped().packets.value(), 1u);
  EXPECT_EQ(q.enqueued().packets.value(), 2u);
  auto p = q.dequeue();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(q.packet_count(), 1u);
  q.dequeue();
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(Topology, ConnectAssignsInterfacesAndSubnets) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  const LinkId l = topo.connect(a.id(), b.id());
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(a.interfaces().size(), 1u);
  EXPECT_EQ(b.interfaces().size(), 1u);
  EXPECT_EQ(a.interface(0).peer, b.id());
  EXPECT_EQ(a.interface(0).link, l);
  EXPECT_EQ(a.interface(0).subnet, b.interface(0).subnet);
  EXPECT_NE(a.interface(0).address, b.interface(0).address);
  EXPECT_EQ(a.interface_to(b.id()), 0u);
  EXPECT_EQ(a.interface_to(999), ip::kInvalidIf);
  EXPECT_THROW(topo.connect(a.id(), a.id()), std::invalid_argument);
}

TEST(Topology, AdjacenciesSkipDownLinks) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  auto& c = topo.add_node<SinkNode>("c");
  topo.connect(a.id(), b.id());
  const LinkId l2 = topo.connect(a.id(), c.id());
  EXPECT_EQ(topo.adjacencies(a.id()).size(), 2u);
  topo.link(l2).set_up(false);
  EXPECT_EQ(topo.adjacencies(a.id()).size(), 1u);
  EXPECT_EQ(topo.adjacencies(a.id())[0].neighbor, b.id());
}

TEST(Topology, AdjacencyVisitorMatchesAdjacencies) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  auto& c = topo.add_node<SinkNode>("c");
  auto& d = topo.add_node<SinkNode>("d");
  topo.connect(a.id(), c.id());
  const LinkId down = topo.connect(a.id(), b.id());
  topo.connect(a.id(), d.id());
  topo.link(down).set_up(false);
  std::vector<Adjacency> visited;
  topo.for_each_adjacency(a.id(),
                          [&](const Adjacency& adj) { visited.push_back(adj); });
  const std::vector<Adjacency> listed = topo.adjacencies(a.id());
  ASSERT_EQ(visited.size(), 2u);  // the down link is skipped
  ASSERT_EQ(listed.size(), visited.size());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(visited[i].neighbor, listed[i].neighbor);
    EXPECT_EQ(visited[i].iface, listed[i].iface);
    EXPECT_EQ(visited[i].link, listed[i].link);
  }
  EXPECT_EQ(visited[0].neighbor, c.id());  // interface order
  EXPECT_EQ(visited[1].neighbor, d.id());
}

TEST(Link, DeliveryTimingMatchesSerializationPlusPropagation) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e6;                  // 1 Mb/s
  cfg.prop_delay = 5 * sim::kMillisecond;   // 5 ms
  topo.connect(a.id(), b.id(), cfg);

  auto p = make_packet(topo, 472);  // 500 B → 4 ms serialization at 1 Mb/s
  a.send(std::move(p), 0);
  topo.scheduler().run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(topo.scheduler().now(), 9 * sim::kMillisecond);
  EXPECT_EQ(b.last_in_if, 0u);
}

TEST(Link, BackToBackPacketsQueue) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e6;
  cfg.prop_delay = 0;
  topo.connect(a.id(), b.id(), cfg);

  a.send(make_packet(topo), 0);  // 4 ms each
  a.send(make_packet(topo), 0);
  a.send(make_packet(topo), 0);
  topo.scheduler().run();
  EXPECT_EQ(b.received.size(), 3u);
  EXPECT_EQ(topo.scheduler().now(), 12 * sim::kMillisecond);
  EXPECT_EQ(topo.link(0).tx_from(a.id()).packets.value(), 3u);
}

TEST(Link, SameTickDeliveriesCoalesceIntoOneBurstInOrder) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e15;  // tx time rounds to 0: a same-tick train
  cfg.prop_delay = 5 * sim::kMillisecond;
  topo.connect(a.id(), b.id(), cfg);

  std::vector<std::uint64_t> sent_ids;
  std::vector<sim::SimTime> tap_times;
  topo.add_packet_tap([&](ip::NodeId, const Packet&) {
    tap_times.push_back(topo.scheduler().now());
  });
  for (int i = 0; i < 5; ++i) {
    auto p = make_packet(topo);
    sent_ids.push_back(p->id);
    a.send(std::move(p), 0);
  }
  topo.scheduler().run();

  // All five land in one pump firing at the propagation instant, FIFO
  // order preserved, per-packet taps invoked for each.
  ASSERT_EQ(b.received.size(), 5u);
  ASSERT_EQ(tap_times.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(b.received[i]->id, sent_ids[i]);
    EXPECT_EQ(tap_times[i], 5 * sim::kMillisecond);
    EXPECT_EQ(b.received[i]->delay.prop, 5 * sim::kMillisecond);
  }
}

TEST(Link, PumpChainKeepsPerPacketArrivalTimes) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e6;  // 4 ms per 500 B packet
  cfg.prop_delay = 0;
  topo.connect(a.id(), b.id(), cfg);

  std::vector<sim::SimTime> arrivals;
  topo.add_packet_tap([&](ip::NodeId, const Packet&) {
    arrivals.push_back(topo.scheduler().now());
  });
  a.send(make_packet(topo), 0);
  a.send(make_packet(topo), 0);
  a.send(make_packet(topo), 0);
  topo.scheduler().run();

  // Serialization separates the train: one chained pump event per arrival,
  // timestamps byte-accurate (k * 4 ms each).
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 4 * sim::kMillisecond);
  EXPECT_EQ(arrivals[1], 8 * sim::kMillisecond);
  EXPECT_EQ(arrivals[2], 12 * sim::kMillisecond);
}

TEST(Link, InFlightBurstSurvivesLinkDownAtArrival) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e15;
  cfg.prop_delay = 5 * sim::kMillisecond;
  topo.connect(a.id(), b.id(), cfg);

  a.send(make_packet(topo), 0);
  a.send(make_packet(topo), 0);
  // Store-and-forward rule: serialization completed while the link was up,
  // so packets already propagating are delivered even though the link goes
  // down before they arrive.
  topo.run_until(1 * sim::kMillisecond);
  topo.link(0).set_up(false);
  topo.scheduler().run();
  EXPECT_EQ(b.received.size(), 2u);

  // A packet sent while down is dropped immediately, not queued.
  a.send(make_packet(topo), 0);
  topo.scheduler().run();
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(topo.link(0).down_drops_from(a.id()).packets.value(), 1u);
}

TEST(Link, UtilizationAccounting) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e6;
  cfg.prop_delay = 0;
  topo.connect(a.id(), b.id(), cfg);
  a.send(make_packet(topo), 0);  // 4 ms busy
  topo.run_until(8 * sim::kMillisecond);
  EXPECT_NEAR(topo.link(0).utilization_from(a.id(), topo.scheduler().now()),
              0.5, 1e-9);
  EXPECT_EQ(topo.link(0).utilization_from(b.id(), topo.scheduler().now()),
            0.0);
}

TEST(Link, DownLinkDropsTrafficAndQueue) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e5;  // slow: 40 ms per packet
  topo.connect(a.id(), b.id(), cfg);

  a.send(make_packet(topo), 0);
  a.send(make_packet(topo), 0);  // queued behind the first
  topo.run_until(1 * sim::kMillisecond);
  topo.link(0).set_up(false);  // mid-transmission failure
  topo.scheduler().run();
  EXPECT_EQ(b.received.size(), 0u);

  topo.link(0).set_up(true);
  a.send(make_packet(topo), 0);
  topo.scheduler().run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Link, QueueDiscSwapRequiresIdle) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  topo.connect(a.id(), b.id());
  topo.link(0).set_queue_from(a.id(), std::make_unique<DropTailQueue>(5));
  a.send(make_packet(topo), 0);
  EXPECT_THROW(
      topo.link(0).set_queue_from(a.id(), std::make_unique<DropTailQueue>(5)),
      std::logic_error);
}

TEST(Link, PeerOfAndEndpoints) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  topo.connect(a.id(), b.id());
  const Link& l = topo.link(0);
  EXPECT_EQ(l.peer_of(a.id()).node, b.id());
  EXPECT_EQ(l.peer_of(b.id()).node, a.id());
  EXPECT_THROW(l.peer_of(42), std::invalid_argument);
}

TEST(Topology, PacketTapSeesDeliveries) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  topo.connect(a.id(), b.id());
  int taps = 0;
  topo.add_packet_tap([&](ip::NodeId at, const Packet&) {
    EXPECT_EQ(at, b.id());
    ++taps;
  });
  a.send(make_packet(topo), 0);
  topo.scheduler().run();
  EXPECT_EQ(taps, 1);
}

TEST(Node, InterfaceCountersTrackTraffic) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  topo.connect(a.id(), b.id());
  a.send(make_packet(topo, 472), 0);
  topo.scheduler().run();
  EXPECT_EQ(a.interface(0).tx.packets.value(), 1u);
  EXPECT_EQ(a.interface(0).tx.bytes.value(), 500u);
  EXPECT_EQ(b.interface(0).rx.packets.value(), 1u);
  EXPECT_EQ(b.interface(0).rx.bytes.value(), 500u);
  EXPECT_EQ(a.interface(0).rx.packets.value(), 0u);
}

TEST(Packet, SegMetaDoesNotChangeWireSize) {
  Packet p;
  p.payload_bytes = 100;
  const std::size_t before = p.wire_size();
  p.seg = SegMeta{42, true};
  EXPECT_EQ(p.wire_size(), before);
}

TEST(Packet, CombinedEncapsulationsStack) {
  Packet p;
  p.payload_bytes = 100;  // inner 128
  EspEncap esp;
  esp.pad_bytes = 6;
  p.esp = esp;  // +56
  p.push_label(MplsShim{100, 5, 64});  // +4
  p.push_label(MplsShim{200, 5, 64});  // +4
  EXPECT_EQ(p.wire_size(), 128u + 56u + 8u);
}

TEST(PacketPool, ReuseReturnsFullyResetPackets) {
  Topology topo;
  Packet* recycled = nullptr;
  std::uint64_t first_id = 0;
  {
    PacketPtr p = topo.packet_factory().make();
    recycled = p.get();
    first_id = p->id;
    p->flow_id = 9;
    p->true_vpn_id = 3;
    p->created_at = 12345;
    p->hop_count = 4;
    p->payload_bytes = 999;
    p->ip.dscp = 46;
    p->l4.dst_port = 8080;
    p->push_label(MplsShim{100, 5, 64});
    p->push_label(MplsShim{200, 5, 64});
    p->esp = EspEncap{};
    p->pvc = PvcEncap{3};
    p->seg = SegMeta{42, true};
  }  // refcount hits zero: back to the pool

  PacketPtr q = topo.packet_factory().make();
  ASSERT_EQ(q.get(), recycled);  // same storage, recycled
  EXPECT_NE(q->id, first_id);    // but a fresh identity
  EXPECT_EQ(q->flow_id, 0u);
  EXPECT_EQ(q->true_vpn_id, 0u);
  EXPECT_EQ(q->created_at, 0);
  EXPECT_EQ(q->hop_count, 0u);
  EXPECT_EQ(q->payload_bytes, 0u);
  EXPECT_EQ(q->ip.dscp, 0);
  EXPECT_EQ(q->l4.dst_port, 0);
  EXPECT_TRUE(q->labels.empty());
  EXPECT_FALSE(q->esp.has_value());
  EXPECT_FALSE(q->pvc.has_value());
  EXPECT_FALSE(q->seg.has_value());
}

TEST(PacketPool, SteadyStateMakesNoNewAllocations) {
  PacketPool pool;
  for (int i = 0; i < 1000; ++i) {
    PacketPtr p = pool.acquire();
    p->payload_bytes = 100;
  }
  EXPECT_EQ(pool.allocated(), 1u);  // one packet, recycled 999 times
  EXPECT_EQ(pool.reused(), 999u);
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PacketPool, OutstandingTracksLiveness) {
  PacketPool pool;
  PacketPtr a = pool.acquire();
  PacketPtr b = pool.acquire();
  EXPECT_EQ(pool.outstanding(), 2u);
  a.reset();
  EXPECT_EQ(pool.outstanding(), 1u);
  PacketPtr c = b;  // sharing does not change liveness
  EXPECT_EQ(pool.outstanding(), 1u);
  b.reset();
  c.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PacketPtr, RefcountSemantics) {
  PacketPtr p = make_standalone_packet();
  EXPECT_EQ(p.use_count(), 1u);
  PacketPtr q = p;
  EXPECT_EQ(p.use_count(), 2u);
  EXPECT_EQ(p, q);
  PacketPtr moved = std::move(q);
  EXPECT_EQ(q, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(p.use_count(), 2u);
  moved.reset();
  EXPECT_EQ(p.use_count(), 1u);
  EXPECT_NE(p, nullptr);
}

TEST(InlineVec, StaysInlineUpToCapacityThenSpills) {
  InlineVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.inline_storage());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // fifth element spills to the heap
  EXPECT_FALSE(v.inline_storage());
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(InlineVec, ClearRetainsSpilledCapacity) {
  InlineVec<int, 4> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  EXPECT_FALSE(v.inline_storage());
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);  // pooled reuse keeps the buffer
  v.push_back(7);
  EXPECT_EQ(v.back(), 7);
}

TEST(InlineVec, CopyAndMoveAndEquality) {
  InlineVec<int, 4> a;
  for (int i = 0; i < 6; ++i) a.push_back(i);
  InlineVec<int, 4> b = a;
  EXPECT_EQ(a, b);
  b.push_back(99);
  EXPECT_NE(a, b);
  InlineVec<int, 4> c = std::move(b);
  ASSERT_EQ(c.size(), 7u);
  EXPECT_EQ(c.back(), 99);
  b = c;  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b, c);
}

TEST(Packet, LabelStackInlineCapacityCoversDeployedStacks) {
  // Deepest stack in the deployment model: [TE tunnel, LDP tunnel, VPN]
  // plus one spare — all inline, no allocation on push.
  Packet p;
  p.push_label(MplsShim{100, 0, 64});
  p.push_label(MplsShim{200, 0, 64});
  p.push_label(MplsShim{300, 0, 64});
  p.push_label(MplsShim{400, 0, 64});
  EXPECT_TRUE(p.labels.inline_storage());
}

// Store-and-forward failure rule with single-event delivery: a packet whose
// serialization completes while the link is down is lost, even though the
// link later comes back up before the delivery event fires.
TEST(Link, MidSerializationFailureDropsPacket) {
  Topology topo;
  auto& a = topo.add_node<SinkNode>("a");
  auto& b = topo.add_node<SinkNode>("b");
  // 1000-byte packet at 1 Mb/s = 8 ms serialization; 1 ms propagation.
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e6;
  cfg.prop_delay = sim::kMillisecond;
  Link& link = topo.link(topo.connect(a.id(), b.id(), cfg));

  PacketPtr p = topo.packet_factory().make();
  p->payload_bytes = 1000 - kIpv4HeaderBytes - kL4HeaderBytes;
  topo.scheduler().schedule_at(0, [&] { link.transmit(a.id(), std::move(p)); });
  // Down during serialization, up again before the delivery event fires.
  topo.scheduler().schedule_at(4 * sim::kMillisecond,
                               [&] { link.set_up(false); });
  topo.scheduler().schedule_at(8 * sim::kMillisecond + 1,
                               [&] { link.set_up(true); });
  topo.run_until(20 * sim::kMillisecond);
  EXPECT_TRUE(b.received.empty());

  // The next packet goes through normally.
  PacketPtr q = topo.packet_factory().make();
  q->payload_bytes = 100;
  link.transmit(a.id(), std::move(q));
  topo.run_until(40 * sim::kMillisecond);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Packet, DescribeMentionsLayers) {
  Packet p;
  p.id = 7;
  p.ip.src = ip::Ipv4Address::must_parse("10.0.0.1");
  p.ip.dst = ip::Ipv4Address::must_parse("10.0.0.2");
  p.push_label(MplsShim{77, 2, 64});
  const std::string d = p.describe();
  EXPECT_NE(d.find("pkt#7"), std::string::npos);
  EXPECT_NE(d.find("mpls[77"), std::string::npos);
  EXPECT_NE(d.find("10.0.0.2"), std::string::npos);
}

}  // namespace
}  // namespace mvpn::net
