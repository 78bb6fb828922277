#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/partition.hpp"
#include "backbone/scenario_config.hpp"
#include "golden.hpp"
#include "ip/address.hpp"
#include "net/shard_runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/sync_profiler.hpp"
#include "qos/sla.hpp"
#include "sim/epoch_barrier.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"
#include "vpn/router.hpp"

namespace mvpn {
namespace {

// --- Epoch barrier --------------------------------------------------------

TEST(EpochBarrier, CoordinatorAndWorkersAgreeOnTargets) {
  constexpr std::uint32_t kWorkers = 3;
  sim::EpochBarrier barrier(kWorkers);
  std::vector<std::vector<sim::SimTime>> seen(kWorkers);
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t epoch = 0;
      sim::SimTime target = 0;
      while (barrier.next(epoch, target)) {
        seen[w].push_back(target);
        barrier.arrive();
      }
    });
  }
  const std::vector<sim::SimTime> targets{10, 20, 35, 36};
  for (sim::SimTime t : targets) {
    barrier.open(t);
    barrier.wait_all_arrived();
  }
  barrier.shutdown();
  for (auto& th : threads) th.join();
  for (std::uint32_t w = 0; w < kWorkers; ++w) EXPECT_EQ(seen[w], targets);
}

TEST(EpochBarrier, SpinPathStaysUnparkedWhenPeerIsAlreadyThere) {
  // Explicit spin budget overrides the hardware-concurrency heuristic (on
  // a small host the default would disable spinning entirely). The epoch
  // is published before the worker looks and the worker has arrived
  // before the coordinator waits, so both waits must resolve inside the
  // spin phase and report parked=false.
  sim::EpochBarrier barrier(1, /*spin_limit=*/1u << 20);
  ASSERT_EQ(barrier.spin_limit(), 1u << 20);
  barrier.open(10);
  bool got = false;
  bool worker_parked = true;
  sim::SimTime target = 0;
  std::thread worker([&] {
    std::uint64_t epoch = 0;
    got = barrier.next(epoch, target, &worker_parked);
    if (got) barrier.arrive();
  });
  worker.join();
  ASSERT_TRUE(got);
  EXPECT_FALSE(worker_parked);
  EXPECT_EQ(target, 10);
  bool coord_parked = true;
  barrier.wait_all_arrived(&coord_parked);
  EXPECT_FALSE(coord_parked);
  barrier.shutdown();
}

TEST(EpochBarrier, ParkPathReportsParkedUnderRealContention) {
  // Spin budget zero forces the condvar path on both sides, and the
  // sleeps make each waiter genuinely park before its wakeup arrives: the
  // worker waits while the coordinator dawdles before open(), and the
  // coordinator waits while the worker dawdles before arrive().
  constexpr int kEpochs = 5;
  sim::EpochBarrier barrier(1, /*spin_limit=*/0);
  std::vector<bool> worker_parked;
  std::vector<sim::SimTime> seen;
  std::thread worker([&] {
    std::uint64_t epoch = 0;
    sim::SimTime target = 0;
    bool parked = false;
    while (barrier.next(epoch, target, &parked)) {
      worker_parked.push_back(parked);
      seen.push_back(target);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      barrier.arrive();
    }
  });
  for (int e = 1; e <= kEpochs; ++e) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    barrier.open(e * 10);
    bool coord_parked = false;
    barrier.wait_all_arrived(&coord_parked);
    EXPECT_TRUE(coord_parked) << "epoch " << e;
  }
  barrier.shutdown();
  worker.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kEpochs));
  for (int e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(seen[static_cast<std::size_t>(e)], (e + 1) * 10);
    EXPECT_TRUE(worker_parked[static_cast<std::size_t>(e)]) << "epoch " << e;
  }
}

// --- Scheduler window semantics ------------------------------------------

TEST(Scheduler, NextEventTimeAndInclusiveRunUntil) {
  sim::Scheduler sched;
  EXPECT_EQ(sched.next_event_time(), sim::Scheduler::kNoEventTime);

  int fired = 0;
  sched.schedule_at(100, [&] { ++fired; });
  sched.schedule_at(250, [&] { ++fired; });
  EXPECT_EQ(sched.next_event_time(), 100);

  sched.run_until(100);  // inclusive: the event AT the bound runs
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 100);
  EXPECT_EQ(sched.next_event_time(), 250);

  sched.run_until(200);  // empty window still advances the clock
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 200);

  sched.run_until(300);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), 300);
}

// --- Parallel engine ------------------------------------------------------

TEST(ParallelEngine, RunsShardsInWindowsAndExchanges) {
  sim::Scheduler a;
  sim::Scheduler b;
  constexpr sim::SimTime kLookahead = 2 * sim::kMillisecond;
  constexpr sim::SimTime kEnd = 50 * sim::kMillisecond;

  // Each shard ticks every ms; the exchange hook cross-posts one event per
  // barrier at window_end + lookahead (the only safe time).
  std::atomic<int> ticks_a{0};
  std::atomic<int> ticks_b{0};
  std::atomic<int> crossed{0};
  std::function<void(sim::Scheduler&, std::atomic<int>&)> tick =
      [&](sim::Scheduler& s, std::atomic<int>& n) {
        ++n;
        if (s.now() + sim::kMillisecond <= kEnd) {
          s.schedule_in(sim::kMillisecond, [&] { tick(s, n); });
        }
      };
  a.schedule_at(sim::kMillisecond, [&] { tick(a, ticks_a); });
  b.schedule_at(sim::kMillisecond, [&] { tick(b, ticks_b); });

  sim::ParallelEngine engine({{0, &a}, {1, &b}}, kLookahead, nullptr);
  engine.set_exchange([&](sim::SimTime window_end) {
    if (window_end + kLookahead <= kEnd) {
      b.schedule_at(window_end + kLookahead, [&] { ++crossed; });
    }
  });
  engine.run_until(kEnd);

  EXPECT_EQ(a.now(), kEnd);
  EXPECT_EQ(b.now(), kEnd);
  EXPECT_EQ(ticks_a.load(), 50);
  EXPECT_EQ(ticks_b.load(), 50);
  EXPECT_GT(crossed.load(), 0);
  EXPECT_GE(engine.windows(),
            static_cast<std::uint64_t>(kEnd / kLookahead));
}

TEST(ParallelEngine, GlobalActionsFireBetweenWindows) {
  sim::Scheduler shard;
  sim::Scheduler global;
  std::vector<sim::SimTime> stamps;
  sim::ParallelEngine engine({{0, &shard}}, sim::kMillisecond, &global);
  engine.add_periodic_action(
      5 * sim::kMillisecond, 5 * sim::kMillisecond,
      [&](sim::SimTime) { stamps.push_back(global.now()); });
  engine.run_until(20 * sim::kMillisecond);
  ASSERT_EQ(stamps.size(), 4U);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    EXPECT_EQ(stamps[i], static_cast<sim::SimTime>(i + 1) * 5 *
                             sim::kMillisecond);
  }
  EXPECT_EQ(global.now(), 20 * sim::kMillisecond);
}

TEST(ParallelEngine, OneShardActionSeesEventsBeforeItsInstantOnly) {
  // The one-shard engine runs inline, in windows that end at the next
  // action - 1: an action at T has seen the event at T - 1, not the ones
  // at T, and is handed T itself while the lane clock reads T - 1.
  constexpr sim::SimTime kT = 5 * sim::kMillisecond;
  sim::Scheduler lane;
  std::vector<sim::SimTime> ran;
  for (const sim::SimTime at : {kT - 1, kT, kT, kT + 1}) {
    lane.schedule_at(at, [&ran, &lane] { ran.push_back(lane.now()); });
  }
  sim::ParallelEngine engine({{0, &lane}}, 0, nullptr);
  std::vector<std::size_t> seen;
  std::vector<sim::SimTime> instants;
  std::vector<sim::SimTime> clocks;
  engine.add_periodic_action(kT, kT, [&](sim::SimTime at) {
    seen.push_back(ran.size());
    instants.push_back(at);
    clocks.push_back(lane.now());
  });
  engine.run_until(2 * kT);
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], 1U);  // only the event at T - 1
  EXPECT_EQ(seen[1], 4U);  // everything up to 2T - 1
  EXPECT_EQ(instants, (std::vector<sim::SimTime>{kT, 2 * kT}));
  EXPECT_EQ(clocks, (std::vector<sim::SimTime>{kT - 1, 2 * kT - 1}));
  EXPECT_EQ(lane.now(), 2 * kT);
  // One lane runs the same window loop as N: [0, T - 1] before the action
  // at T, [T - 1, 2T - 1] before the one at 2T, and [2T - 1, 2T] to reach
  // the end — three windows, no thread.
  EXPECT_EQ(engine.windows(), 3U);
}

TEST(ParallelEngine, LaneExceptionPropagatesAndShutsDown) {
  // Lane 0 throws on the calling thread, lane 1 on its peer thread; either
  // way run_until rethrows once the peer has arrived, keeps rethrowing
  // without opening another window, and the engine still joins its peer.
  for (const std::uint32_t bad : {0U, 1U}) {
    SCOPED_TRACE("lane=" + std::to_string(bad));
    sim::Scheduler a;
    sim::Scheduler b;
    sim::Scheduler* lanes[] = {&a, &b};
    lanes[bad]->schedule_at(3 * sim::kMillisecond, [bad] {
      throw std::runtime_error("lane " + std::to_string(bad) + " failed");
    });
    int other_ticks = 0;
    lanes[1 - bad]->schedule_at(3 * sim::kMillisecond,
                                [&other_ticks] { ++other_ticks; });
    {
      sim::ParallelEngine engine({{0, &a}, {1, &b}}, sim::kMillisecond,
                                 nullptr);
      try {
        engine.run_until(10 * sim::kMillisecond);
        ADD_FAILURE() << "run_until did not throw";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "lane " + std::to_string(bad) + " failed");
      }
      // The healthy lane finished the same window before the rethrow.
      EXPECT_EQ(other_ticks, 1);
      const std::uint64_t windows = engine.windows();
      EXPECT_THROW(engine.run_until(20 * sim::kMillisecond),
                   std::runtime_error);
      EXPECT_EQ(engine.windows(), windows);
    }
  }
}

// --- Adaptive window sizing -----------------------------------------------

/// Drive a two-shard engine where shard A ticks every `spacing` and shard B
/// is idle; returns the tick count and reports window statistics.
int drive_with_spacing(sim::SimTime spacing, std::uint64_t& windows,
                       std::uint64_t& widened) {
  constexpr sim::SimTime kLookahead = sim::kMillisecond;
  constexpr sim::SimTime kEnd = 100 * sim::kMillisecond;
  sim::Scheduler a;
  sim::Scheduler b;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (a.now() + spacing <= kEnd) a.schedule_in(spacing, tick);
  };
  a.schedule_at(spacing, tick);
  sim::ParallelEngine engine({{0, &a}, {1, &b}}, kLookahead, nullptr);
  engine.run_until(kEnd);
  windows = engine.windows();
  widened = engine.widened_windows();
  EXPECT_EQ(a.now(), kEnd);
  EXPECT_EQ(b.now(), kEnd);
  return ticks;
}

TEST(ParallelEngine, AdaptiveWindowsJumpQuietStretches) {
  // Quiet traffic (events every 10 ms, lookahead 1 ms): the static sizing
  // would take ~100 windows over 100 ms; the adaptive window jumps to the
  // next pending event, so barriers scale with events, not elapsed time.
  std::uint64_t quiet_windows = 0;
  std::uint64_t quiet_widened = 0;
  const int quiet_ticks =
      drive_with_spacing(10 * sim::kMillisecond, quiet_windows, quiet_widened);
  EXPECT_EQ(quiet_ticks, 10);
  EXPECT_LT(quiet_windows, 25U);
  EXPECT_GT(quiet_widened, 0U);

  // Bursty traffic (events every 0.2 ms): the next event is always near
  // the frontier, so windows shrink back toward the static bound — the
  // sizing adapts in both directions, and no event is ever lost either way.
  std::uint64_t bursty_windows = 0;
  std::uint64_t bursty_widened = 0;
  const int bursty_ticks = drive_with_spacing(sim::kMillisecond / 5,
                                              bursty_windows, bursty_widened);
  EXPECT_EQ(bursty_ticks, 500);
  EXPECT_GT(bursty_windows, 3 * quiet_windows);
}

// --- Topology partitioner -------------------------------------------------

backbone::BackboneConfig bench_config() {
  backbone::BackboneConfig cfg;
  cfg.p_count = 8;
  cfg.pe_count = 16;
  cfg.seed = 7;
  return cfg;
}

TEST(Partitioner, BalancedShardsWithCoreDelayCut) {
  backbone::MplsBackbone bb(bench_config());
  const vpn::VpnId v = bb.service.create_vpn("T");
  for (std::size_t i = 0; i < 16; ++i) {
    bb.add_site(v, i,
                ip::Prefix(ip::Ipv4Address(10, std::uint8_t(1 + i), 0, 0), 16));
  }

  const backbone::ShardPlan plan = backbone::compute_shard_plan(bb.topo, 4);
  ASSERT_TRUE(plan.parallel());
  EXPECT_EQ(plan.shard_count, 4U);
  ASSERT_EQ(plan.node_shard.size(), bb.topo.node_count());

  // Strict cap: no shard exceeds ceil(N / 4) nodes.
  std::vector<std::size_t> sizes(plan.shard_count, 0);
  for (std::uint32_t s : plan.node_shard) ++sizes[s];
  const std::size_t cap = (bb.topo.node_count() + 3) / 4;
  for (std::size_t sz : sizes) {
    EXPECT_GT(sz, 0U);
    EXPECT_LE(sz, cap);
  }

  // The greedy absorbs the fast 1 ms edge links; the cut is made of 2 ms
  // core links only, so the lookahead is the full core delay.
  EXPECT_EQ(plan.lookahead, 2 * sim::kMillisecond);
  EXPECT_FALSE(plan.cut_links.empty());
  for (net::LinkId id : plan.cut_links) {
    EXPECT_EQ(bb.topo.link(id).config().prop_delay, 2 * sim::kMillisecond);
    const auto sa = plan.node_shard[bb.topo.link(id).end_a().node];
    const auto sb = plan.node_shard[bb.topo.link(id).end_b().node];
    EXPECT_NE(sa, sb);
  }
}

TEST(Partitioner, DegenerateInputsStaySerial) {
  backbone::MplsBackbone bb(bench_config());
  const backbone::ShardPlan one = backbone::compute_shard_plan(bb.topo, 1);
  EXPECT_FALSE(one.parallel());
  EXPECT_TRUE(one.cut_links.empty());

  // Requesting more shards than nodes clamps instead of failing.
  const backbone::ShardPlan many =
      backbone::compute_shard_plan(bb.topo, 10000);
  EXPECT_LE(many.shard_count, bb.topo.node_count());
}

TEST(Partitioner, PlanIsDeterministic) {
  backbone::MplsBackbone bb1(bench_config());
  backbone::MplsBackbone bb2(bench_config());
  const backbone::ShardPlan p1 = backbone::compute_shard_plan(bb1.topo, 4);
  const backbone::ShardPlan p2 = backbone::compute_shard_plan(bb2.topo, 4);
  EXPECT_EQ(p1.node_shard, p2.node_shard);
  EXPECT_EQ(p1.cut_links, p2.cut_links);
  EXPECT_EQ(p1.lookahead, p2.lookahead);
}

// --- End-to-end determinism: serial vs sharded scenario runs --------------

constexpr const char* kDeterminismScenario = R"(
backbone p=4 pe=8 seed=11 core_queue=fifo
vpn corp
vpn partner
site corp pe=0 prefix=10.1.0.0/16
site corp pe=2 prefix=10.2.0.0/16
site corp pe=5 prefix=10.3.0.0/16
site partner pe=1 prefix=192.168.0.0/16
site partner pe=6 prefix=192.169.0.0/16
classify site=0 dstport=16384-16484 class=EF
police site=0 class=EF cir=62500 cbs=4000 ebs=4000
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow cbr vpn=corp from=1 to=2 rate=400e3
flow poisson vpn=corp from=2 to=0 rate=300e3
flow onoff vpn=partner from=3 to=4 rate=500e3 on=0.2 off=0.1
flow poisson vpn=partner from=4 to=3 rate=250e3
run for=2
)";

struct ScenarioOutputs {
  std::string report;        ///< run() output minus the converged banner
  std::string metrics_json;  ///< the obs files, empty for a run without one
  std::string latency_json;
  std::string flow_jsonl;    ///< flow-record stream, one JSON per line
  std::string flow_bin;      ///< the same records, binary framing
  std::string flow_txt;      ///< the flow conformance rollup
  std::string sync_json;
  bool ok = false;
};

/// The converged banner names the engine ("on N shards ..."), which is the
/// one intended textual difference between serial and parallel runs; drop
/// it before comparing.
std::string strip_converged_line(const std::string& text) {
  std::stringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("converged") == std::string::npos) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

ScenarioOutputs run_scenario_with_shards(std::uint32_t shards,
                                         bool with_obs = true) {
  backbone::ScenarioError err;
  auto sc = backbone::Scenario::parse(kDeterminismScenario, &err);
  EXPECT_TRUE(sc.has_value()) << "line " << err.line << ": " << err.message;
  ScenarioOutputs out;
  if (!sc) return out;

  const std::string dir =
      ::testing::TempDir() + "/par_obs_" + std::to_string(shards);
  std::filesystem::remove_all(dir);
  if (with_obs) sc->set_obs_dir(dir);
  sc->set_shards(shards);

  std::ostringstream report;
  out.ok = sc->run(report);
  out.report = strip_converged_line(report.str());
  if (!with_obs) return out;
  out.metrics_json = golden::slurp(dir + "/metrics.json");
  out.latency_json = golden::slurp(dir + "/latency.json");
  out.flow_jsonl = golden::slurp(dir + "/flow.jsonl");
  out.flow_bin = golden::slurp(dir + "/flow.bin");
  out.flow_txt = golden::slurp(dir + "/flow.txt");
  out.sync_json = golden::slurp(dir + "/sync.json");
  EXPECT_FALSE(out.metrics_json.empty());
  EXPECT_FALSE(out.latency_json.empty());
  EXPECT_FALSE(out.flow_jsonl.empty());
  EXPECT_FALSE(out.flow_bin.empty());
  EXPECT_FALSE(out.sync_json.empty());
  return out;
}

TEST(ShardedDeterminism, TwoAndFourShardsMatchSerialByteForByte) {
  const ScenarioOutputs serial = run_scenario_with_shards(1);
  ASSERT_TRUE(serial.ok);
  // The serial snapshots and decomposition are pinned by checked-in
  // digests, so "matches serial" cannot drift along with serial. The
  // digest predates the per-router `fastpath/slots` gauge, so it pins the
  // file without those entries; the shard comparisons below keep them.
  EXPECT_EQ(golden::stream_mismatch(
                "determinism_metrics",
                golden::strip_node_gauges(serial.metrics_json,
                                          "/fastpath/slots")),
            "");
  EXPECT_EQ(golden::stream_mismatch("determinism_latency",
                                    serial.latency_json), "");
  EXPECT_NE(serial.flow_txt.find("flow conformance"), std::string::npos);
  for (std::uint32_t shards : {2U, 4U}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ScenarioOutputs par = run_scenario_with_shards(shards);
    ASSERT_TRUE(par.ok);
    // SLA tables, isolation accounting, per-class latency decomposition and
    // every metrics snapshot must be bit-identical to the serial engine.
    EXPECT_EQ(par.report, serial.report);
    EXPECT_EQ(par.metrics_json, serial.metrics_json);
    EXPECT_EQ(par.latency_json, serial.latency_json);
    EXPECT_EQ(par.flow_jsonl, serial.flow_jsonl);
    EXPECT_EQ(par.flow_bin, serial.flow_bin);
    EXPECT_EQ(par.flow_txt, serial.flow_txt);
  }
}

TEST(ShardedDeterminism, ParallelRunsAreRepeatable) {
  const ScenarioOutputs a = run_scenario_with_shards(4);
  const ScenarioOutputs b = run_scenario_with_shards(4);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.latency_json, b.latency_json);
}

// --- Flow caches across epoch boundaries ----------------------------------

/// A converged 8P/16PE backbone with one site per PE; start_runtime()
/// brings up the engine with one SLA probe/sink lane per shard.
struct RingNetwork {
  backbone::MplsBackbone bb{bench_config()};
  vpn::VpnId v = bb.service.create_vpn("T");
  std::vector<backbone::MplsBackbone::Site> sites;
  std::unique_ptr<net::ShardRuntime> runtime;
  std::vector<std::unique_ptr<qos::SlaProbe>> probes;
  std::vector<std::unique_ptr<traffic::MeasurementSink>> sinks;

  RingNetwork() {
    for (std::size_t i = 0; i < 16; ++i) {
      sites.push_back(bb.add_site(
          v, i,
          ip::Prefix(ip::Ipv4Address(10, std::uint8_t(1 + i), 0, 0), 16)));
    }
    bb.start_and_converge();
  }

  void start_runtime(std::uint32_t shards) {
    runtime = backbone::make_shard_runtime(
        bb.topo, backbone::compute_shard_plan(bb.topo, shards));
    for (std::uint32_t s = 0; s < runtime->shard_count(); ++s) {
      probes.push_back(
          std::make_unique<qos::SlaProbe>("lane" + std::to_string(s)));
      sinks.push_back(std::make_unique<traffic::MeasurementSink>(
          *probes[s], runtime->shard_scheduler(s)));
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
      sinks[lane_of(i)]->bind(*sites[i].ce);
    }
  }

  [[nodiscard]] std::uint32_t lane_of(std::size_t site) const {
    return runtime->shard_of(sites[site].ce->id());
  }

  /// Arm `flows` synchronized 1 Mb/s CBR flows around the site ring (flow
  /// i from site i to site i + 1, ids 1000..) until `stop`: one FlowSet
  /// per lane, sent-side accounting on the source's lane probe, delivery
  /// expectations on the destination's lane sink.
  std::vector<std::unique_ptr<traffic::FlowSet>> ring_flows(
      std::size_t flows, sim::SimTime stop) {
    std::vector<std::unique_ptr<traffic::FlowSet>> sets;
    for (std::uint32_t s = 0; s < runtime->shard_count(); ++s) {
      sets.push_back(std::make_unique<traffic::FlowSet>(
          runtime->shard_scheduler(s), probes[s].get(), bb.topo.seed()));
    }
    for (std::size_t i = 0; i < flows; ++i) {
      const std::size_t a = i % sites.size();
      const std::size_t b = (i + 1) % sites.size();
      traffic::FlowSet& set = *sets[lane_of(a)];
      traffic::FlowSet::FlowDef f;
      f.flow_id = static_cast<std::uint32_t>(1000 + i);
      f.from_site = set.add_site(*sites[a].ce,
                                 ip::Ipv4Address(10, std::uint8_t(1 + a), 0,
                                                 std::uint8_t(1 + i % 200)));
      f.to_site = set.add_site(*sites[b].ce,
                               ip::Ipv4Address(10, std::uint8_t(1 + b), 0,
                                               std::uint8_t(1 + i % 200)));
      f.rate_bps = 1e6;
      f.dst_port = static_cast<std::uint16_t>(20000 + i);
      f.vpn = v;
      sinks[lane_of(b)]->expect_flow(f.flow_id, qos::Phb::kBe, v);
      set.add_flow(f);
    }
    for (auto& set : sets) set->run(stop);
    return sets;
  }
};

TEST(ShardedFlowcache, HitRatePersistsAcrossEpochBoundaries) {
  RingNetwork net;
  net.start_runtime(4);
  net::ShardRuntime* runtime = net.runtime.get();
  ASSERT_EQ(runtime->shard_count(), 4U);

  constexpr std::size_t kFlows = 64;
  const sim::SimTime t0 = net.bb.topo.base_scheduler().now();
  const auto flows = net.ring_flows(kFlows, t0 + sim::from_seconds(1.0));
  runtime->run_until(t0 + sim::from_seconds(1.5));

  const std::uint64_t windows = runtime->windows();
  const std::uint64_t batches = runtime->delivery_batches();
  runtime->finish();

  std::uint64_t delivered = 0;
  for (auto& s : net.sinks) delivered += s->delivered();
  EXPECT_GT(delivered, 0U);

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < net.bb.topo.node_count(); ++i) {
    if (auto* r = dynamic_cast<vpn::Router*>(
            &net.bb.topo.node(static_cast<ip::NodeId>(i)))) {
      hits += r->flowcache_stats().hits;
      misses += r->flowcache_stats().misses;
    }
  }
  ASSERT_GT(hits + misses, 0U);

  // The run crosses hundreds of epoch boundaries, and these synchronized
  // same-rate flows hand off in same-instant groups, so the batched
  // delivery path is genuinely exercised.
  EXPECT_GT(windows, 300U);
  EXPECT_GT(batches, 0U);

  // Persistent caches miss once per (flow, router) on the path and then
  // hit for the rest of the run. A per-window reset would instead pay the
  // cold lookups again in every window — with >300 windows the miss count
  // would exceed this bound by orders of magnitude.
  EXPECT_LE(misses, kFlows * 16);
  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  EXPECT_GE(hit_rate, 0.98);
}

// --- One-lane runtime ------------------------------------------------------

/// The Threads field of /proc/self/status; 0 where it is unavailable.
std::uint64_t thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

TEST(OneLaneRuntime, RunsInlineWithoutThreadsOrBinding) {
  RingNetwork net;
  net.start_runtime(1);
  net::Topology& topo = net.bb.topo;
  net::ShardRuntime& runtime = *net.runtime;
  // Lane 0 is the topology itself; no sharded view is installed.
  EXPECT_EQ(runtime.shard_count(), 1U);
  EXPECT_EQ(&runtime.shard_scheduler(0), &topo.base_scheduler());
  EXPECT_EQ(topo.shard_runtime(), nullptr);

  const sim::SimTime t0 = topo.base_scheduler().now();
  const auto flows = net.ring_flows(32, t0 + sim::from_seconds(0.2));

  const std::uint64_t before = thread_count();
  ASSERT_GT(before, 0U);
  std::uint64_t during = 0;
  runtime.add_periodic_action(t0 + sim::from_seconds(0.1),
                              sim::from_seconds(1.0),
                              [&during] { during = thread_count(); });
  const std::uint64_t ev0 = runtime.executed_count();
  runtime.run_until(t0 + sim::from_seconds(0.3));
  EXPECT_EQ(during, before);
  EXPECT_EQ(thread_count(), before);
  EXPECT_EQ(topo.base_scheduler().now(), t0 + sim::from_seconds(0.3));
  EXPECT_GT(runtime.executed_count(), ev0);
  EXPECT_GT(net.sinks[0]->delivered(), 0U);
  // One window up to the action at t0 + 0.1 s, one from there to the end:
  // the action's next instant, t0 + 1.1 s, lies past it.
  EXPECT_EQ(runtime.windows(), 2U);
  EXPECT_EQ(runtime.handoffs(), 0U);
}

TEST(OneLaneRuntime, SnapshotActionStampsItsInstant) {
  RingNetwork net;
  net.start_runtime(1);
  net::Topology& topo = net.bb.topo;
  net::ShardRuntime& runtime = *net.runtime;
  obs::MetricsRegistry registry;
  registry.add_gauge("clock_ns", [&topo] {
    return static_cast<double>(topo.base_scheduler().now());
  });
  obs::PeriodicSnapshots snapshots(registry);
  const sim::SimTime t0 = topo.base_scheduler().now();
  const sim::SimTime period = 100 * sim::kMillisecond;
  runtime.add_periodic_action(
      t0 + period, period,
      [&snapshots](sim::SimTime at) { snapshots.capture(at); });
  runtime.run_until(t0 + 3 * period);
  ASSERT_EQ(snapshots.count(), 3U);

  // Each snapshot is stamped with its instant T while the lane clock the
  // gauge read still sat at T - 1.
  std::ostringstream js;
  snapshots.write_json(js);
  const std::string json = js.str();
  for (int i = 1; i <= 3; ++i) {
    const sim::SimTime at = t0 + i * period;
    std::ostringstream want;
    want << "{\"t_s\":" << sim::to_seconds(at)
         << ",\"metrics\":{\"clock_ns\":" << static_cast<double>(at - 1)
         << "}}";
    EXPECT_NE(json.find(want.str()), std::string::npos)
        << want.str() << " in " << json;
  }
}

TEST(ShardedRuntime, NLanesRunOnNThreads) {
  // The caller runs lane 0 and coordinates, so K lanes start K - 1
  // threads: lane 0's events see the calling thread as shard 0, global
  // actions see it as no shard, and every other lane has its own thread.
  for (const std::uint32_t lanes : {2U, 4U}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    RingNetwork net;
    net.start_runtime(lanes);
    net::ShardRuntime& runtime = *net.runtime;
    ASSERT_EQ(runtime.shard_count(), lanes);
    const sim::SimTime t0 = net.bb.topo.base_scheduler().now();

    const std::uint64_t before = thread_count();
    ASSERT_GT(before, 0U);
    std::uint64_t during = 0;
    std::uint32_t action_shard = 0;
    runtime.add_periodic_action(t0 + sim::from_seconds(0.1),
                                sim::from_seconds(1.0),
                                [&during, &action_shard] {
                                  during = thread_count();
                                  action_shard = sim::current_shard();
                                });
    std::vector<std::thread::id> lane_thread(lanes);
    std::vector<std::uint32_t> lane_shard(lanes, sim::kNoShard);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      runtime.shard_scheduler(l).schedule_at(
          t0 + sim::from_seconds(0.05), [&lane_thread, &lane_shard, l] {
            lane_thread[l] = std::this_thread::get_id();
            lane_shard[l] = sim::current_shard();
          });
    }
    runtime.run_until(t0 + sim::from_seconds(0.2));

    EXPECT_EQ(during, before + lanes - 1);
    EXPECT_EQ(action_shard, sim::kNoShard);
    EXPECT_EQ(lane_thread[0], std::this_thread::get_id());
    for (std::uint32_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(lane_shard[l], l);
      for (std::uint32_t m = 0; m < l; ++m) {
        EXPECT_NE(lane_thread[l], lane_thread[m]) << l << " vs " << m;
      }
    }
    EXPECT_EQ(sim::current_shard(), sim::kNoShard);
  }
}

TEST(OneLaneRuntime, RejectsZeroShardsAndIncompleteMaps) {
  RingNetwork net;
  net::Topology& topo = net.bb.topo;
  const std::vector<std::uint32_t> full(topo.node_count(), 0);
  EXPECT_THROW(net::ShardRuntime(topo, full, 0, 0), std::invalid_argument);
  const std::vector<std::uint32_t> partial(topo.node_count() - 1, 0);
  EXPECT_THROW(net::ShardRuntime(topo, partial, 1, 0),
               std::invalid_argument);
  std::vector<std::uint32_t> past = full;
  past.back() = 1;
  EXPECT_THROW(net::ShardRuntime(topo, past, 1, 0), std::invalid_argument);
  // None of the failed constructions left a view behind.
  EXPECT_EQ(topo.shard_runtime(), nullptr);
}

// --- Epoch profiler against the real engine -------------------------------

TEST(ShardedDeterminism, ProfilerOnRunIsByteIdenticalAndEmitsReport) {
  const ScenarioOutputs plain = run_scenario_with_shards(4, /*with_obs=*/false);
  const ScenarioOutputs profiled = run_scenario_with_shards(4);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(profiled.ok);
  // Observing the engine must not perturb it: the report is bit-identical
  // with every obs plane, the epoch profiler among them, attached.
  EXPECT_EQ(profiled.report, plain.report);
  // ...and the profiled run actually produced a sharded sync report.
  EXPECT_NE(profiled.sync_json.find("\"serial\":false"), std::string::npos)
      << profiled.sync_json;
  EXPECT_NE(profiled.sync_json.find("\"shards\":4"), std::string::npos)
      << profiled.sync_json;

  // A serial profiled run reports one execution phase under the same JSON
  // keys it always had.
  const ScenarioOutputs serial = run_scenario_with_shards(1);
  ASSERT_TRUE(serial.ok);
  EXPECT_NE(serial.sync_json.find("\"serial\":true"), std::string::npos)
      << serial.sync_json;
  // Every quoted token of the report is a key (its values are numbers).
  std::string keys;
  const std::string& js = serial.sync_json;
  for (std::size_t open = js.find('"'); open != std::string::npos;) {
    const std::size_t close = js.find('"', open + 1);
    ASSERT_NE(close, std::string::npos) << js;
    keys += (keys.empty() ? "" : " ") + js.substr(open + 1, close - open - 1);
    open = js.find('"', close + 1);
  }
  std::string golden_keys = golden::read_text("sync_serial_keys.txt");
  while (!golden_keys.empty() && golden_keys.back() == '\n') {
    golden_keys.pop_back();
  }
  EXPECT_EQ(keys, golden_keys);
}

TEST(SyncProfiler, WorkerTimestampsMonotoneAndReportCoherent) {
  RingNetwork net;
  net.start_runtime(4);
  net::ShardRuntime* runtime = net.runtime.get();
  ASSERT_EQ(runtime->shard_count(), 4U);
  obs::SyncProfiler prof(runtime->shard_count());
  backbone::attach_sync_profiler(*runtime, net.bb.topo, prof);

  const sim::SimTime t0 = net.bb.topo.base_scheduler().now();
  const auto flows = net.ring_flows(64, t0 + sim::from_seconds(1.0));
  // Run past the source window so every in-flight packet drains back to its
  // pool before the runtime (which owns the per-shard pools) tears down.
  runtime->run_until(t0 + sim::from_seconds(1.5));

  const std::uint64_t windows = runtime->windows();
  const std::uint64_t handoffs = runtime->handoffs();
  runtime->finish();
  ASSERT_GT(windows, 0U);

  // The coordinator closed every window through the profiler.
  EXPECT_EQ(prof.epochs(), windows);

  for (std::uint32_t s = 0; s < prof.shard_count(); ++s) {
    SCOPED_TRACE("shard=" + std::to_string(s));
    const auto slots = prof.worker_snapshot(s);
    ASSERT_FALSE(slots.empty());
    for (std::size_t i = 1; i < slots.size(); ++i) {
      // Epochs arrive in order and windows tile the sim-time axis.
      EXPECT_EQ(slots[i].epoch, slots[i - 1].epoch + 1);
      EXPECT_EQ(slots[i].window_start, slots[i - 1].window_end);
      // Phase stamps are monotone per worker: an epoch's wait + exec
      // phases complete before the next epoch's wait begins.
      EXPECT_LE(slots[i - 1].begin_ns + slots[i - 1].wait_ns +
                    slots[i - 1].exec_ns,
                slots[i].begin_ns);
    }
  }

  const obs::SyncProfiler::Report rep = prof.report();
  EXPECT_FALSE(rep.serial);
  EXPECT_EQ(rep.shards, 4U);
  EXPECT_EQ(rep.epochs, windows);
  ASSERT_EQ(rep.lanes.size(), 4U);
  std::uint64_t critical = 0;
  std::uint64_t cache_total = 0;
  for (const auto& lane : rep.lanes) {
    EXPECT_EQ(lane.epochs, windows);
    EXPECT_GE(lane.busy_fraction, 0.0);
    EXPECT_LE(lane.busy_fraction, 1.0);
    critical += lane.critical_epochs;
    cache_total += lane.cache_hits + lane.cache_misses;
  }
  // Every epoch is attributed to exactly one slowest shard.
  EXPECT_EQ(critical, windows);
  // The sampler saw the flow caches and the exchange hook saw traffic.
  EXPECT_GT(cache_total, 0U);
  EXPECT_GT(rep.handoffs, 0U);
  EXPECT_EQ(rep.handoffs, handoffs);
  EXPECT_GT(rep.wall_s, 0.0);
}

}  // namespace
}  // namespace mvpn
