#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "mpls/domain.hpp"
#include "mpls/rsvp_te.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue_disc.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/sync_profiler.hpp"
#include "obs/trace.hpp"
#include "sim/engine_observer.hpp"
#include "qos/queues.hpp"
#include "routing/control_plane.hpp"
#include "routing/igp.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/scheduler.hpp"
#include "vpn/diagnostics.hpp"
#include "vpn/oam.hpp"
#include "vpn/router.hpp"

namespace mvpn {
namespace {

using obs::Category;
using obs::DropReason;
using obs::EventType;
using obs::FlightRecorder;
using obs::TraceEvent;

std::size_t count_type(const std::vector<TraceEvent>& events, EventType t) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [t](const TraceEvent& e) { return e.type == t; }));
}

std::size_t count_reason(const std::vector<TraceEvent>& events,
                         DropReason r) {
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [r](const TraceEvent& e) {
        return e.type == EventType::kDrop && e.reason == r;
      }));
}

// --- flight recorder ring -------------------------------------------------

TEST(FlightRecorder, WraparoundOverwritesOldest) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched, 8);
  ASSERT_EQ(rec.capacity(), 8u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    rec.record({.a = i, .type = EventType::kEnqueue});
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  EXPECT_EQ(rec.size(), 8u);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and exactly the last 8 records survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12u + i);
  }

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, RingAllocatedAtFirstEnable) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched, 8);
  EXPECT_EQ(rec.capacity(), 8u);  // configured...
  EXPECT_EQ(rec.ring_bytes(), 0u);  // ...but not allocated
  rec.enable(0);
  EXPECT_EQ(rec.ring_bytes(), 0u);  // no category on: still nothing
  rec.enable();
  const std::size_t bytes = rec.ring_bytes();
  EXPECT_EQ(bytes, 8u * sizeof(TraceEvent));

  for (std::uint32_t i = 0; i < 20; ++i) {
    rec.record({.a = i, .type = EventType::kEnqueue});
  }
  rec.disable();
  rec.enable();  // re-enabling keeps the ring and its contents
  EXPECT_EQ(rec.ring_bytes(), bytes);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12u + i);
  }

  rec.set_capacity(16);  // an allocated ring is reallocated at the new size
  EXPECT_EQ(rec.ring_bytes(), 16u * sizeof(TraceEvent));
  EXPECT_EQ(rec.size(), 0u);
}

TEST(FlightRecorder, MergeIntoNeverEnabledRecorderAllocates) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched, 4);
  rec.set_capacity(4);
  EXPECT_EQ(rec.ring_bytes(), 0u);  // set_capacity keeps a ring unallocated
  rec.append_stamped({.at = 7, .a = 1, .type = EventType::kLspUp});
  EXPECT_EQ(rec.ring_bytes(), 4u * sizeof(TraceEvent));
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, 7);
  EXPECT_EQ(events[0].a, 1u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched, 6);
  EXPECT_EQ(rec.capacity(), 8u);
  rec.record({.a = 1, .type = EventType::kEnqueue});
  rec.set_capacity(100);
  EXPECT_EQ(rec.capacity(), 128u);
  EXPECT_EQ(rec.size(), 0u);  // resize clears
}

TEST(FlightRecorder, CategoryMaskGatesEnabled) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched);
  // Disabled by default: every category reads false.
  for (auto c : {Category::kQueue, Category::kLink, Category::kMpls,
                 Category::kVpn, Category::kSignaling, Category::kOam}) {
    EXPECT_FALSE(rec.enabled(c));
  }
  rec.enable(static_cast<std::uint32_t>(Category::kQueue) |
             static_cast<std::uint32_t>(Category::kOam));
  EXPECT_TRUE(rec.enabled(Category::kQueue));
  EXPECT_TRUE(rec.enabled(Category::kOam));
  EXPECT_FALSE(rec.enabled(Category::kMpls));
  EXPECT_FALSE(rec.enabled(Category::kSignaling));

  rec.disable();
  EXPECT_EQ(rec.mask(), 0u);
  EXPECT_FALSE(rec.enabled(Category::kQueue));

  // enable() clamps to the compile-time mask: nothing outside it can ever
  // light up.
  rec.enable(obs::kAllCategories);
  EXPECT_EQ(rec.mask(), obs::kAllCategories & obs::kCompiledTraceMask);
}

TEST(FlightRecorder, DisabledRecorderIgnoresEnable) {
  FlightRecorder& rec = obs::disabled_recorder();
  rec.enable(obs::kAllCategories);
  EXPECT_EQ(rec.mask(), 0u);
  EXPECT_FALSE(rec.enabled(Category::kQueue));
}

// --- drop-reason attribution ---------------------------------------------

TEST(TraceEvents, TailDropCarriesReasonAndLocation) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched);
  rec.enable();
  net::PacketFactory factory;

  net::DropTailQueue q(2);
  q.set_trace_context(&rec, /*node=*/7, /*link=*/3);
  for (int i = 0; i < 5; ++i) {
    net::PacketPtr p = factory.make();
    p->payload_bytes = 100;
    q.enqueue(std::move(p));
  }
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.dropped().packets.value(), 3u);

  const auto events = rec.snapshot();
  EXPECT_EQ(count_type(events, EventType::kEnqueue), 2u);
  EXPECT_EQ(count_reason(events, DropReason::kTailDrop), 3u);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.node, 7u);
    EXPECT_EQ(e.a, 3u);
    EXPECT_GT(e.bytes, 0u);
  }
}

TEST(TraceEvents, RedDropsDistinguishEarlyFromForced) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched);
  rec.enable();
  net::PacketFactory factory;

  // Instantaneous averaging with a tight [1, 2] threshold band: the first
  // packets pass, the early-drop region engages almost immediately, and
  // with nothing dequeued the average soon crosses 2*max_th into forced
  // territory.
  qos::RedParams params;
  params.capacity_packets = 100;
  params.min_th = 1;
  params.max_th = 2;
  params.max_p = 0.5;
  params.ewma_weight = 1.0;
  qos::RedQueueDisc q(params, sched, sim::Rng(42));
  q.set_trace_context(&rec, 1, 0);
  for (int i = 0; i < 50; ++i) {
    net::PacketPtr p = factory.make();
    p->payload_bytes = 100;
    q.enqueue(std::move(p));
  }

  const auto events = rec.snapshot();
  EXPECT_EQ(count_reason(events, DropReason::kRedEarly),
            q.early_drops().value());
  EXPECT_EQ(count_reason(events, DropReason::kRedForced),
            q.forced_drops().value());
  EXPECT_GT(q.early_drops().value(), 0u);
  EXPECT_GT(q.forced_drops().value(), 0u);
  EXPECT_EQ(count_type(events, EventType::kEnqueue) +
                count_type(events, EventType::kDrop),
            50u);
}

// --- composable packet taps ----------------------------------------------

/// Minimal node that just absorbs deliveries.
class AbsorbNode : public net::Node {
 public:
  using Node::Node;
  void receive(net::PacketPtr p, ip::IfIndex) override { p.reset(); }
};

TEST(PacketTaps, MultipleTapsCoexistAndRemoveIndividually) {
  net::Topology topo;
  auto& a = topo.add_node<AbsorbNode>("a");
  auto& b = topo.add_node<AbsorbNode>("b");
  const net::LinkId l = topo.connect(a.id(), b.id());
  topo.recorder().enable();

  int first = 0;
  int second = 0;
  const auto t1 =
      topo.add_packet_tap([&](ip::NodeId, const net::Packet&) { ++first; });
  const auto t2 =
      topo.add_packet_tap([&](ip::NodeId, const net::Packet&) { ++second; });
  EXPECT_EQ(topo.packet_tap_count(), 2u);

  auto send = [&] {
    net::PacketPtr p = topo.packet_factory().make();
    p->payload_bytes = 100;
    topo.link(l).transmit(a.id(), std::move(p));
    topo.scheduler().run();
  };
  send();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);

  EXPECT_TRUE(topo.remove_packet_tap(t1));
  send();
  EXPECT_EQ(first, 1);   // removed tap stays silent
  EXPECT_EQ(second, 2);  // the other keeps observing
  EXPECT_EQ(topo.packet_tap_count(), 1u);
  EXPECT_FALSE(topo.remove_packet_tap(t1));  // double-remove is harmless
  EXPECT_TRUE(topo.remove_packet_tap(t2));

  // Both deliveries were traced regardless of tap churn.
  EXPECT_EQ(count_type(topo.recorder().snapshot(), EventType::kDeliver), 2u);
}

// --- metrics registry -----------------------------------------------------

TEST(MetricsRegistry, GaugesAndCountersSnapshotSorted) {
  obs::MetricsRegistry reg;
  double g = 1.5;
  reg.add_gauge("z/gauge", [&g] { return g; });
  stats::Counter c;
  c.add(3);
  reg.add_counter("a/counter", &c);
  ASSERT_EQ(reg.metric_count(), 2u);

  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "a/counter");
  EXPECT_DOUBLE_EQ(snap[0].value, 3.0);
  EXPECT_EQ(snap[1].name, "z/gauge");
  EXPECT_DOUBLE_EQ(snap[1].value, 1.5);

  g = 2.5;
  c.add(1);
  snap = reg.snapshot();  // sources are live references
  EXPECT_DOUBLE_EQ(snap[0].value, 4.0);
  EXPECT_DOUBLE_EQ(snap[1].value, 2.5);

  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find("\"a/counter\":4"), std::string::npos);

  reg.remove_prefix("a/");
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(MetricsRegistry, NamedCountersSelfRegisterWhileHookInstalled) {
  obs::MetricsRegistry reg;
  reg.install_counter_hook();
  {
    stats::Counter dup1("dup");
    stats::Counter dup2("dup");  // same name: deduplicated with #1
    stats::Counter anon;         // unnamed: never registers
    dup1.add(1);
    dup2.add(2);
    anon.add(9);
    EXPECT_EQ(reg.metric_count(), 2u);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "counters/dup");
    EXPECT_DOUBLE_EQ(snap[0].value, 1.0);
    EXPECT_EQ(snap[1].name, "counters/dup#1");
    EXPECT_DOUBLE_EQ(snap[1].value, 2.0);

    // Copies never carry the registration: destroying the copy must not
    // unhook the original.
    stats::Counter copy = dup1;
    copy.add(5);
    EXPECT_EQ(reg.metric_count(), 2u);
  }
  EXPECT_EQ(reg.metric_count(), 0u);  // destruction unregisters

  reg.uninstall_counter_hook();
  stats::Counter post("post");
  EXPECT_EQ(reg.metric_count(), 0u);
}

TEST(MetricsRegistry, PeriodicSnapshotsFollowSimClock) {
  sim::Scheduler sched;
  obs::MetricsRegistry reg;
  std::uint64_t ticks = 0;
  reg.add_gauge("ticks", [&ticks] { return static_cast<double>(++ticks); });

  obs::PeriodicSnapshots snaps(reg);
  sim::ParallelEngine engine({{0, &sched}}, 0, nullptr);
  engine.add_periodic_action(10 * sim::kMillisecond, 10 * sim::kMillisecond,
                             [&snaps](sim::SimTime at) { snaps.capture(at); });
  engine.run_until(55 * sim::kMillisecond);
  EXPECT_EQ(snaps.count(), 5u);
  snaps.capture(sched.now());

  std::ostringstream os;
  snaps.write_json(os);
  EXPECT_NE(os.str().find("\"t_s\":0.01,"), std::string::npos);
  EXPECT_NE(os.str().find("\"t_s\":0.05,"), std::string::npos);
  EXPECT_NE(os.str().find("\"t_s\":0.055,"), std::string::npos);
  EXPECT_NE(os.str().find("\"ticks\":1"), std::string::npos);
}

// --- sinks ----------------------------------------------------------------

TEST(Sinks, JsonlAndChromeTraceRenderEvents) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched, 16);
  rec.record({.packet_id = 42,
              .node = 1,
              .bytes = 100,
              .type = EventType::kDrop,
              .reason = DropReason::kRedEarly,
              .cls = 2});
  rec.record({.node = 0, .a = 5, .type = EventType::kLspUp});

  std::ostringstream jl;
  obs::write_jsonl(rec, jl);
  const std::string jsonl = jl.str();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"type\":\"drop\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"reason\":\"red_early\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"lsp_up\""), std::string::npos);
  // Default namer falls back to node<N>.
  EXPECT_NE(jsonl.find("\"node\":\"node1\""), std::string::npos);

  std::ostringstream ct;
  obs::write_chrome_trace(
      rec, ct, [](std::uint32_t id) { return "R" + std::to_string(id); });
  const std::string chrome = ct.str();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(chrome.find("\"R1\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);  // instants
}

// --- diagnostics coexistence under tracing --------------------------------

/// LSR chain a — b — c with a TE LSP a→c (mirrors the OAM fixture of
/// test_vpn), recorder armed from the start so signaling is captured too.
struct TracedOamFixture {
  net::Topology topo{7};
  routing::ControlPlane cp{topo};
  routing::Igp igp{cp};
  mpls::MplsDomain domain;
  mpls::RsvpTe rsvp{cp, igp, domain};
  vpn::Router* a;
  vpn::Router* b;
  vpn::Router* c;
  mpls::LspId lsp = 0;

  TracedOamFixture() {
    topo.recorder().enable();
    a = &topo.add_node<vpn::Router>("a", vpn::Role::kP);
    b = &topo.add_node<vpn::Router>("b", vpn::Role::kP);
    c = &topo.add_node<vpn::Router>("c", vpn::Role::kP);
    for (vpn::Router* r : {a, b, c}) {
      igp.add_router(r->id());
      r->set_lsr_state(&domain.state_of(r->id()));
    }
    topo.connect(a->id(), b->id());
    topo.connect(b->id(), c->id());
    igp.start();
    topo.scheduler().run();
    mpls::TeLspConfig cfg;
    cfg.head = a->id();
    cfg.tail = c->id();
    cfg.bandwidth_bps = 1e6;
    lsp = rsvp.signal(cfg);
    topo.scheduler().run();
  }
};

TEST(Coexistence, TraceRouteDoesNotDisturbOamMonitorUnderTracing) {
  TracedOamFixture f;
  ASSERT_EQ(f.rsvp.lsp(f.lsp).state, mpls::RsvpTe::LspState::kUp);

  vpn::LspOam oam(f.topo, f.cp, f.rsvp);
  int down_events = 0;
  oam.monitor(f.lsp, 50 * sim::kMillisecond, 3,
              [&](mpls::LspId) { ++down_events; });
  f.topo.run_until(f.topo.scheduler().now() + 300 * sim::kMillisecond);
  ASSERT_EQ(down_events, 0);
  const std::uint64_t replies_before = oam.replies_received();
  ASSERT_GT(replies_before, 0u);

  // A trace through the same topology: its taps must ride alongside the
  // monitor's OAM tap, and be fully unhooked afterwards.
  const vpn::TraceResult result = vpn::trace_route(
      f.topo, *f.a, ip::Ipv4Address::must_parse("10.0.0.1"),
      ip::Ipv4Address::must_parse("10.99.0.1"), 0,
      120 * sim::kMillisecond);
  EXPECT_FALSE(result.delivered);  // a P router has no route for this
  EXPECT_EQ(f.topo.packet_tap_count(), 0u);

  f.topo.run_until(f.topo.scheduler().now() + 300 * sim::kMillisecond);
  EXPECT_EQ(down_events, 0);  // monitor kept running throughout
  EXPECT_GT(oam.replies_received(), replies_before);

  const auto events = f.topo.recorder().snapshot();
  EXPECT_GT(count_type(events, EventType::kLspUp), 0u);     // signaling
  EXPECT_GT(count_type(events, EventType::kOamProbe), 0u);  // monitor pings
  EXPECT_GT(count_type(events, EventType::kOamReply), 0u);
  // The doomed trace probe shows up as a routed drop, with its reason.
  EXPECT_GT(count_reason(events, DropReason::kNoRoute), 0u);
}

// --- epoch sync profiler --------------------------------------------------

sim::EngineObserver::WorkerEpoch worker_epoch(std::uint32_t shard,
                                              std::uint64_t epoch,
                                              std::uint64_t exec_ns,
                                              std::uint64_t events) {
  sim::EngineObserver::WorkerEpoch we;
  we.shard = shard;
  we.epoch = epoch;
  we.window_start = static_cast<sim::SimTime>((epoch - 1) * 100);
  we.window_end = static_cast<sim::SimTime>(epoch * 100);
  we.begin_ns = epoch * 10000 + shard;
  we.wait_ns = 5;
  we.exec_ns = exec_ns;
  we.events = events;
  return we;
}

TEST(SyncProfiler, LaneRingWrapsKeepingNewestOldestFirst) {
  obs::SyncProfiler prof(1, /*capacity=*/4);
  for (std::uint64_t e = 1; e <= 10; ++e) {
    prof.on_worker_epoch(worker_epoch(0, e, 50, e));
  }
  const auto slots = prof.worker_snapshot(0);
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_EQ(slots.front().epoch, 7u);
  EXPECT_EQ(slots.back().epoch, 10u);
  for (std::size_t i = 1; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].epoch, slots[i - 1].epoch + 1);
  }
  // Aggregates cover all ten epochs, not just the retained tail.
  const auto rep = prof.report();
  ASSERT_EQ(rep.lanes.size(), 1u);
  EXPECT_EQ(rep.lanes[0].epochs, 10u);
  EXPECT_EQ(rep.lanes[0].events, 55u);  // 1 + 2 + ... + 10
  EXPECT_EQ(rep.lanes[0].exec_ns, 500u);
}

TEST(SyncProfiler, SerialModeReportsOneBusyLane) {
  obs::SyncProfiler prof(1);
  prof.record_serial(/*exec_ns=*/2'000'000'000, /*events=*/12345);
  const auto rep = prof.report();
  EXPECT_TRUE(rep.serial);
  EXPECT_EQ(rep.shards, 1u);
  EXPECT_EQ(rep.epochs, 0u);
  ASSERT_EQ(rep.lanes.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.lanes[0].busy_fraction, 1.0);
  EXPECT_EQ(rep.lanes[0].events, 12345u);
  EXPECT_NEAR(rep.wall_s, 2.0, 1e-9);
  EXPECT_NE(rep.to_table().find("serial engine"), std::string::npos);
  std::ostringstream js;
  rep.write_json(js);
  EXPECT_NE(js.str().find("\"serial\":true"), std::string::npos);
  EXPECT_NE(js.str().find("\"busy_fraction\":1"), std::string::npos);
}

TEST(SyncProfiler, CoordinatorAttributesCriticalShardAndFoldsDrain) {
  obs::SyncProfiler prof(2, 8);
  prof.set_cache_sampler(
      [](std::uint32_t shard, std::uint64_t& h, std::uint64_t& m) {
        h = 100 + shard;
        m = shard;
      });
  auto feed = [&](std::uint64_t epoch, std::uint64_t exec0,
                  std::uint64_t exec1) {
    prof.on_worker_epoch(worker_epoch(0, epoch, exec0, 3));
    prof.on_worker_epoch(worker_epoch(1, epoch, exec1, 3));
    const std::uint64_t per_src[2] = {4, 6};
    prof.record_exchange(/*drain_ns=*/77, /*handoffs=*/10, per_src, 2);
    prof.record_batch(2);
    prof.record_batch(8);
    sim::EngineObserver::CoordinatorEpoch ce;
    ce.epoch = epoch;
    ce.window_start = static_cast<sim::SimTime>((epoch - 1) * 100);
    ce.window_end = static_cast<sim::SimTime>(epoch * 100);
    ce.begin_ns = epoch * 10000;
    ce.wait_ns = 9;
    ce.parked = true;
    prof.on_coordinator_epoch(ce);
  };
  feed(1, 100, 200);  // shard 1 slowest
  feed(2, 300, 50);   // shard 0 slowest
  feed(3, 10, 20);    // shard 1 slowest
  EXPECT_EQ(prof.epochs(), 3u);

  const auto rep = prof.report();
  ASSERT_EQ(rep.lanes.size(), 2u);
  EXPECT_EQ(rep.lanes[0].critical_epochs, 1u);
  EXPECT_EQ(rep.lanes[1].critical_epochs, 2u);
  EXPECT_EQ(rep.handoffs, 30u);
  EXPECT_EQ(rep.delivery_batches, 6u);
  EXPECT_EQ(rep.lanes[0].handoffs_out, 12u);  // 3 epochs x per_src[0]
  EXPECT_EQ(rep.lanes[1].handoffs_out, 18u);
  EXPECT_EQ(rep.drain_ns, 231u);
  EXPECT_EQ(rep.coord_wait_ns, 27u);
  EXPECT_EQ(rep.coord_parks, 3u);
  EXPECT_GE(rep.batch_max, 8.0);
  // Cache sampler results land on the coordinator's per-shard state.
  EXPECT_EQ(rep.lanes[1].cache_hits, 101u);
  EXPECT_EQ(rep.lanes[1].cache_misses, 1u);

  const auto coords = prof.coordinator_snapshot();
  ASSERT_EQ(coords.size(), 3u);
  EXPECT_EQ(coords[0].drain_ns, 77u);  // folded from record_exchange
  EXPECT_EQ(coords[0].handoffs, 10u);
  EXPECT_NE(coords[0].parked, 0);

  const auto se = prof.shard_epoch_snapshot(1);
  ASSERT_EQ(se.size(), 3u);
  EXPECT_EQ(se.back().handoffs_out, 18u);  // cumulative
}

TEST(SyncProfiler, RegistersEngineSyncGauges) {
  obs::SyncProfiler prof(2, 8);
  prof.on_worker_epoch(worker_epoch(0, 1, 40, 7));
  prof.on_worker_epoch(worker_epoch(1, 1, 60, 9));
  sim::EngineObserver::CoordinatorEpoch ce;
  ce.epoch = 1;
  prof.on_coordinator_epoch(ce);

  obs::MetricsRegistry registry;
  obs::register_sync_metrics(prof, registry);
  const auto snap = registry.snapshot();
  const auto value = [&](const std::string& name) -> double {
    for (const auto& s : snap) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "gauge missing: " << name;
    return -1.0;
  };
  EXPECT_EQ(value("engine/sync/epochs"), 1.0);
  EXPECT_EQ(value("engine/sync/shard0/events"), 7.0);
  EXPECT_EQ(value("engine/sync/shard1/events"), 9.0);
}

TEST(Sinks, ChromeTraceGrowsEngineLanesWithProfiler) {
  sim::Scheduler sched;
  FlightRecorder rec(&sched, 16);
  rec.record({.node = 0, .a = 5, .type = EventType::kLspUp});

  obs::SyncProfiler prof(2, 8);
  prof.on_worker_epoch(worker_epoch(0, 1, 40, 7));
  prof.on_worker_epoch(worker_epoch(1, 1, 60, 9));
  sim::EngineObserver::CoordinatorEpoch ce;
  ce.epoch = 1;
  ce.window_end = 100;
  ce.wait_ns = 11;
  prof.on_coordinator_epoch(ce);

  std::ostringstream ct;
  obs::write_chrome_trace(rec, ct, {}, &prof);
  const std::string chrome = ct.str();
  // Engine process (pid 2) with one lane per worker plus the coordinator.
  EXPECT_NE(chrome.find("\"engine\""), std::string::npos);
  EXPECT_NE(chrome.find("\"shard0 worker\""), std::string::npos);
  EXPECT_NE(chrome.find("\"shard1 worker\""), std::string::npos);
  EXPECT_NE(chrome.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"barrier\""), std::string::npos);
  // Null profiler keeps the old shape: no engine lanes.
  std::ostringstream plain;
  obs::write_chrome_trace(rec, plain, {}, nullptr);
  EXPECT_EQ(plain.str().find("\"cat\":\"engine\""), std::string::npos);
}

}  // namespace
}  // namespace mvpn
