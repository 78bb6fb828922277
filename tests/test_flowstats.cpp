#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/partition.hpp"
#include "backbone/scenario_config.hpp"
#include "generated_run.hpp"
#include "obs/flow_stats.hpp"
#include "obs/sinks.hpp"
#include "obs/sync_profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mvpn {
namespace {

using obs::FlowExporter;
using obs::FlowStatsTable;

using Key = FlowStatsTable::Key;

Key key_of(std::uint32_t flow) {
  // Distinct src address per flow id -> distinct keys.
  return FlowStatsTable::make_key(0x0A000000u + flow, 0x0A010001u, 10000,
                                  20000, 17);
}

// ---------------------------------------------------------------------------
// FlowStatsTable units

TEST(FlowStats, TableAccountsOfferedDeliveredDropsColor) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock);
  const Key k = key_of(1);
  t.record_offered(k, 1, 500, /*ingress_pe=*/7, /*vpn=*/3, /*phb=*/2);
  t.record_offered(k, 1, 500, 7, 3, 2);
  clock.run_until(10 * sim::kMillisecond);
  t.record_delivered(k, 1, 500, 2 * sim::kMillisecond);
  t.record_delivered(k, 1, 500, 4 * sim::kMillisecond);
  t.record_drop(k, 1, 500, /*reason=*/5);
  t.record_color(k, 1, 0);
  t.record_color(k, 1, 2);

  std::vector<FlowStatsTable::Slot> out;
  t.drain([&](const FlowStatsTable::Slot& s) { out.push_back(s); });
  ASSERT_EQ(out.size(), 1u);
  const auto& s = out[0];
  EXPECT_EQ(s.flow_id, 1u);
  EXPECT_EQ(s.offered_packets, 2u);
  EXPECT_EQ(s.offered_bytes, 1000u);
  EXPECT_EQ(s.delivered_packets, 2u);
  EXPECT_EQ(s.ingress_pe, 7u);
  EXPECT_EQ(s.vpn, 3u);
  EXPECT_EQ(s.phb, 2u);
  EXPECT_EQ(s.dropped_packets(), 1u);
  EXPECT_EQ(s.drops[5], 1u);
  EXPECT_EQ(s.dropped_bytes, 500u);
  EXPECT_EQ(s.color[0], 1u);
  EXPECT_EQ(s.color[2], 1u);
  EXPECT_EQ(s.delay_min, 2 * sim::kMillisecond);
  EXPECT_EQ(s.delay_max, 4 * sim::kMillisecond);
  EXPECT_EQ(s.first_seen, 0);
  EXPECT_EQ(s.last_seen, 10 * sim::kMillisecond);
}

/// A fresh table grows from kInitialSlots to hold 10^4 distinct keys:
/// every key keeps its own exact accumulation across both rounds, and the
/// table stays a power of two at most half full.
TEST(FlowStats, TableGrowsAndKeepsEveryFlowExact) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock);
  EXPECT_EQ(t.capacity(), FlowStatsTable::kInitialSlots);
  constexpr std::uint32_t kFlows = 10000;
  for (int round = 1; round <= 2; ++round) {
    for (std::uint32_t f = 1; f <= kFlows; ++f) {
      // Flow f sends f % 7 + 1 packets of 100 + f bytes per round.
      for (std::uint32_t n = 0; n <= f % 7; ++n) {
        t.record_offered(key_of(f), f, 100 + f, 1, 1, 0);
      }
    }
  }
  EXPECT_EQ(std::popcount(t.capacity()), 1);
  EXPECT_LE(2 * std::size_t{kFlows}, t.capacity());
  EXPECT_EQ(t.claims(), kFlows);
  std::vector<bool> seen(kFlows + 1, false);
  std::size_t flows = 0;
  t.drain([&](const FlowStatsTable::Slot& s) {
    ++flows;
    ASSERT_GE(s.flow_id, 1u);
    ASSERT_LE(s.flow_id, kFlows);
    EXPECT_FALSE(seen[s.flow_id]) << s.flow_id;
    seen[s.flow_id] = true;
    EXPECT_EQ(s.key, key_of(s.flow_id));
    const std::uint64_t packets = 2 * (s.flow_id % 7 + 1);
    EXPECT_EQ(s.offered_packets, packets) << s.flow_id;
    EXPECT_EQ(s.offered_bytes, packets * (100 + s.flow_id)) << s.flow_id;
  });
  EXPECT_EQ(flows, kFlows);
  std::size_t after = 0;
  t.drain([&](const FlowStatsTable::Slot&) { ++after; });
  EXPECT_EQ(after, 0u);  // a drain empties the grown table too
}

/// drain() is an O(1) logical clear: a second round starts from zero, and
/// an undrained table keeps accumulating.
TEST(FlowStats, GenerationClearOnDrain) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock);
  t.record_offered(key_of(1), 1, 100, 1, 1, 0);
  std::size_t n = 0;
  t.drain([&](const FlowStatsTable::Slot&) { ++n; });
  EXPECT_EQ(n, 1u);
  n = 0;
  t.drain([&](const FlowStatsTable::Slot&) { ++n; });
  EXPECT_EQ(n, 0u);  // logically empty after the first drain
  t.record_offered(key_of(1), 1, 100, 1, 1, 0);
  std::vector<FlowStatsTable::Slot> out;
  t.drain([&](const FlowStatsTable::Slot& s) { out.push_back(s); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].offered_packets, 1u);  // no residue from round one
  EXPECT_EQ(t.drains(), 3u);
}

/// merge_into is commutative — fold order across shards never shows.
TEST(FlowStats, MergeIntoCommutes) {
  sim::Scheduler clock;
  FlowStatsTable ta(&clock), tb(&clock);
  const Key k = key_of(9);
  // Shard A saw the ingress side; shard B the egress side.
  ta.record_offered(k, 9, 700, 4, 2, 1);
  ta.record_drop(k, 9, 700, 3);
  clock.run_until(5 * sim::kMillisecond);
  tb.record_delivered(k, 9, 700, 3 * sim::kMillisecond);
  tb.record_delivered(k, 9, 700, 1 * sim::kMillisecond);

  FlowStatsTable::Slot a, b;
  ta.drain([&](const FlowStatsTable::Slot& s) { a = s; });
  tb.drain([&](const FlowStatsTable::Slot& s) { b = s; });

  FlowStatsTable::Slot ab = a, ba = b;
  FlowStatsTable::merge_into(ab, b);
  FlowStatsTable::merge_into(ba, a);
  EXPECT_EQ(ab.offered_packets, ba.offered_packets);
  EXPECT_EQ(ab.delivered_packets, ba.delivered_packets);
  EXPECT_EQ(ab.dropped_packets(), ba.dropped_packets());
  EXPECT_EQ(ab.flow_id, ba.flow_id);
  EXPECT_EQ(ab.ingress_pe, ba.ingress_pe);
  EXPECT_EQ(ab.vpn, ba.vpn);
  EXPECT_EQ(ab.phb, ba.phb);
  EXPECT_EQ(ab.first_seen, ba.first_seen);
  EXPECT_EQ(ab.last_seen, ba.last_seen);
  EXPECT_EQ(ab.delay_min, ba.delay_min);
  EXPECT_EQ(ab.delay_max, ba.delay_max);
  EXPECT_EQ(ab.delay_min, 1 * sim::kMillisecond);
  EXPECT_EQ(ab.ingress_pe, 4u);  // known side wins over unknown
}

// ---------------------------------------------------------------------------
// FlowExporter units

/// The timeout rules at the exporter's constant timeouts (idle 250 ms,
/// active 500 ms), scanned every 250 ms the way the engine wiring does:
/// at a scan instant the lanes have run every event before it, none at it.
TEST(FlowStats, ExporterCutsIdleActiveAndFinal) {
  static_assert(FlowExporter::kIdleTimeout == 250 * sim::kMillisecond);
  static_assert(FlowExporter::kActiveTimeout == 500 * sim::kMillisecond);
  sim::Scheduler clock;
  FlowExporter ex({&clock});
  FlowStatsTable& t = *ex.tables().front();
  const auto offer = [&](std::uint32_t key, std::uint32_t id) {
    t.record_offered(key_of(key), id, 100, 1, 1, 0);
  };
  // Flow 1: one packet at 0, then silent. Flow 2: a packet every 50 ms
  // from 0 to 950. Flows 8, 9 and 7 share key 9's 5-tuple: 8 at 100 ms,
  // 9 at 150 ms (one accumulation), 7 at 300 ms (after the 250 ms scan
  // drained it).
  for (int ms = 0; ms <= 1000; ms += 50) {
    clock.run_until(ms * sim::kMillisecond);
    if (ms > 0 && ms % 250 == 0) ex.scan(clock.now());
    if (ms == 0) offer(1, 1);
    if (ms < 1000) offer(2, 2);
    if (ms == 100) offer(9, 8);
    if (ms == 150) offer(9, 9);
    if (ms == 300) offer(9, 7);
  }
  // Flow 3 is still open at the end of the run.
  clock.run_until(1100 * sim::kMillisecond);
  offer(3, 3);
  ex.flush();
  EXPECT_EQ(ex.active_flows(), 0u);

  struct Want {
    std::uint32_t flow;
    std::uint32_t key;
    FlowExporter::Cause cause;
    std::uint64_t packets;
    sim::SimTime first_ms;
    sim::SimTime last_ms;
  };
  const Want want[] = {
      // 250: flow 1 silent for 250 ms.
      {1, 1, FlowExporter::Cause::kIdle, 1, 0, 0},
      // 500: flow 2 accumulating since 0, packets 0..450.
      {2, 2, FlowExporter::Cause::kActive, 10, 0, 450},
      // 750: key 9 silent since 300; the smaller id of its three flows.
      {7, 9, FlowExporter::Cause::kIdle, 3, 100, 300},
      // 1000: flow 2 re-accumulated since 500, packets 500..950.
      {2, 2, FlowExporter::Cause::kActive, 10, 500, 950},
      // flush: whatever is still open.
      {3, 3, FlowExporter::Cause::kFinal, 1, 1100, 1100},
  };
  const std::vector<FlowExporter::Record>& recs = ex.records();
  ASSERT_EQ(recs.size(), std::size(want));
  for (std::size_t i = 0; i < recs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(recs[i].acc.flow_id, want[i].flow);
    EXPECT_EQ(recs[i].acc.key, key_of(want[i].key));
    EXPECT_EQ(recs[i].cause, want[i].cause);
    EXPECT_EQ(recs[i].acc.offered_packets, want[i].packets);
    EXPECT_EQ(recs[i].acc.offered_bytes, want[i].packets * 100);
    EXPECT_EQ(recs[i].acc.first_seen, want[i].first_ms * sim::kMillisecond);
    EXPECT_EQ(recs[i].acc.last_seen, want[i].last_ms * sim::kMillisecond);
  }
}

TEST(FlowStats, RollupAggregatesPerVpnAndClass) {
  sim::Scheduler clock;
  FlowExporter ex({&clock});
  FlowStatsTable& t = *ex.tables().front();
  t.record_offered(key_of(1), 1, 100, 1, /*vpn=*/1, /*phb=*/0);
  t.record_delivered(key_of(1), 1, 100, sim::kMillisecond);
  t.record_offered(key_of(2), 2, 100, 1, /*vpn=*/1, /*phb=*/5);
  t.record_offered(key_of(3), 3, 100, 1, /*vpn=*/2, /*phb=*/0);
  ex.flush();
  const auto rows = ex.rollup();
  ASSERT_EQ(rows.size(), 3u);
  // Sorted by (vpn, phb).
  EXPECT_EQ(rows[0].vpn, 1u);
  EXPECT_EQ(rows[0].phb, 0u);
  EXPECT_EQ(rows[0].offered_packets, 1u);
  EXPECT_EQ(rows[0].delivered_packets, 1u);
  EXPECT_DOUBLE_EQ(rows[0].loss_fraction(), 0.0);
  EXPECT_EQ(rows[1].vpn, 1u);
  EXPECT_EQ(rows[1].phb, 5u);
  EXPECT_DOUBLE_EQ(rows[1].loss_fraction(), 1.0);
  EXPECT_EQ(rows[2].vpn, 2u);
}

// ---------------------------------------------------------------------------
// Scenario integration: determinism across engine configurations

constexpr const char* kScenario = R"(
backbone p=2 pe=2 core_bw=4e6 edge_bw=20e6 seed=7 core_queue=wfq:8,3,1
vpn corp
vpn eng
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
site eng  pe=0 prefix=10.3.0.0/16
site eng  pe=1 prefix=10.4.0.0/16
classify site=0 dstport=16384-16484 class=EF
police  site=0 class=EF cir=62500 cbs=4000 ebs=4000
flow cbr     vpn=corp from=0 to=1 rate=400e3 class=EF   port=16400 size=172
flow onoff   vpn=corp from=0 to=1 rate=2e6   class=AF21 port=5004  size=1172 on=0.3 off=0.2
flow poisson vpn=eng  from=2 to=3 rate=4e6   class=BE   port=80    size=1472
run for=1
)";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct ScenarioRun {
  std::string report;
  std::string jsonl;
  std::string binary;
};

ScenarioRun run_scenario(std::uint32_t shards, bool flow_on) {
  backbone::ScenarioError err;
  auto scenario = backbone::Scenario::parse(kScenario, &err);
  EXPECT_TRUE(scenario.has_value()) << err.message;
  scenario->set_shards(shards);
  ScenarioRun r;
  const std::string dir = ::testing::TempDir() + "flowstats_" +
                          std::to_string(shards) + "_" +
                          std::to_string(::getpid());
  if (flow_on) scenario->set_obs_dir(dir);
  std::ostringstream out;
  EXPECT_TRUE(scenario->run(out));
  r.report = out.str();
  if (flow_on) {
    r.jsonl = slurp(dir + "/flow.jsonl");
    r.binary = slurp(dir + "/flow.bin");
    std::filesystem::remove_all(dir);
  }
  return r;
}

/// Everything below the engine-description header (SLA table, isolation
/// accounting) — the engine line legitimately differs across shard counts
/// and gains window boundaries from the scan actions.
std::string body(const std::string& report) {
  return report.substr(report.find("\n\n"));
}

/// Arming flow accounting (with every other obs plane) must not change a
/// single result byte: the SLA table and delivery accounting are identical
/// with an obs directory and without, serially and sharded.
TEST(FlowStats, ScenarioReportByteIdenticalFlowOnOff) {
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    const ScenarioRun off = run_scenario(shards, false);
    const ScenarioRun on = run_scenario(shards, true);
    EXPECT_EQ(body(off.report), body(on.report)) << "shards=" << shards;
    EXPECT_FALSE(on.jsonl.empty());
  }
}

/// The record stream is a pure function of the scenario: byte-identical
/// JSONL and binary exports across serial, 2-shard and 4-shard runs.
TEST(FlowStats, RecordStreamByteIdenticalAcrossShardCounts) {
  const ScenarioRun s1 = run_scenario(1, true);
  const ScenarioRun s2 = run_scenario(2, true);
  const ScenarioRun s4 = run_scenario(4, true);
  EXPECT_FALSE(s1.jsonl.empty());
  EXPECT_EQ(s1.jsonl, s2.jsonl);
  EXPECT_EQ(s1.jsonl, s4.jsonl);
  EXPECT_EQ(s1.binary, s2.binary);
  EXPECT_EQ(s1.binary, s4.binary);
  EXPECT_EQ(s1.binary.substr(0, 4), "MVFR");
  // The SLA body is also engine-invariant, flow accounting on.
  EXPECT_EQ(body(s1.report), body(s2.report));
  EXPECT_EQ(body(s1.report), body(s4.report));
}

// ---------------------------------------------------------------------------
// Flow-weighted partitioning

TEST(FlowStats, WeightedPartitionAllOnesMatchesNodeCountPlan) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 4;
  cfg.pe_count = 8;
  cfg.seed = 7;
  backbone::MplsBackbone bb(cfg);
  const auto base = backbone::compute_shard_plan(bb.topo, 4);
  const auto empty_w = backbone::compute_shard_plan(bb.topo, 4, {});
  const auto ones = backbone::compute_shard_plan(
      bb.topo, 4, std::vector<std::uint64_t>(bb.topo.node_count(), 1));
  EXPECT_EQ(base.node_shard, empty_w.node_shard);
  EXPECT_EQ(base.node_shard, ones.node_shard);
  EXPECT_EQ(base.cut_links, ones.cut_links);
  EXPECT_EQ(base.lookahead, ones.lookahead);
}

TEST(FlowStats, WeightedPartitionIsValidAndDeterministic) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 4;
  cfg.pe_count = 8;
  cfg.seed = 7;
  backbone::MplsBackbone bb(cfg);
  std::vector<std::uint64_t> w(bb.topo.node_count(), 1);
  // Skew the load heavily onto a few nodes.
  for (std::size_t v = 0; v < w.size(); ++v) {
    w[v] = (v % 5 == 0) ? 1000 : 1 + v;
  }
  const auto plan = backbone::compute_shard_plan(bb.topo, 4, w);
  const auto again = backbone::compute_shard_plan(bb.topo, 4, w);
  EXPECT_EQ(plan.node_shard, again.node_shard);
  ASSERT_EQ(plan.node_shard.size(), bb.topo.node_count());
  for (const std::uint32_t s : plan.node_shard) {
    EXPECT_LT(s, plan.shard_count);
  }
  for (const net::LinkId l : plan.cut_links) {
    const net::Link& link = bb.topo.link(l);
    EXPECT_NE(plan.node_shard[link.end_a().node],
              plan.node_shard[link.end_b().node]);
  }
}

/// The telemetry -> partition loop on the flow-accounting workload (the
/// 8192-flow generated plan, 1 s): balancing 4 shards by the profile a
/// serial flow-on run measured, instead of by node count, must pull the
/// busiest lane's events toward the mean. The spread is a function of the
/// plan, not the wall clock (node-count 1.95x, flow-weighted 1.15x).
TEST(FlowStats, WeightedPartitionSpreadsGeneratedLoad) {
  const backbone::GeneratedPlan plan = harness::isp_plan(8192);
  const harness::ShardedResult measured = harness::run_topogen(
      plan, 1, 1.0, {.flow = true, .measure_profile = true});
  ASSERT_FALSE(measured.node_weight.empty());
  const harness::ShardedResult by_nodes =
      harness::run_topogen(plan, 4, 1.0, {.profile = true});
  const harness::ShardedResult by_flows = harness::run_topogen(
      plan, 4, 1.0, {.profile = true, .weights = &measured.node_weight});
  EXPECT_EQ(by_flows.sla_csv, by_nodes.sla_csv);
  EXPECT_GE(by_nodes.event_spread - by_flows.event_spread, 0.3)
      << "event spread " << by_nodes.event_spread << "x -> "
      << by_flows.event_spread << "x";
}

TEST(FlowStats, FlowProfileRoundTripsThroughText) {
  backbone::FlowProfile p;
  p.node_weight = {10, 0, 33, 7};
  p.link_weight = {5, 12};
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.seed = 3;
  backbone::MplsBackbone bb(cfg);
  std::ostringstream out;
  backbone::write_flow_profile(p, bb.topo, out);

  backbone::FlowProfile q;
  std::string err;
  std::istringstream in(out.str());
  ASSERT_TRUE(backbone::load_flow_profile(in, &q, &err)) << err;
  EXPECT_EQ(p.node_weight, q.node_weight);
  EXPECT_EQ(p.link_weight, q.link_weight);

  std::istringstream bad_header("notaprofile v9\n");
  EXPECT_FALSE(backbone::load_flow_profile(bad_header, &q, &err));
  std::istringstream bad_kind("flowprofile v1\nbogus 0 1\n");
  EXPECT_FALSE(backbone::load_flow_profile(bad_kind, &q, &err));
  // Hostile ids: 2^64-1 used to wrap `id + 1` to an empty resize and
  // write past the vector; ~4e9 would have sized a 32 GB vector.
  std::istringstream wrap_id("flowprofile v1\nnode 18446744073709551615 5\n");
  EXPECT_FALSE(backbone::load_flow_profile(wrap_id, &q, &err));
  EXPECT_NE(err.find("node 18446744073709551615 5"), std::string::npos)
      << err;
  std::istringstream huge_id("flowprofile v1\nlink 4000000000 5\n");
  EXPECT_FALSE(backbone::load_flow_profile(huge_id, &q, &err));
  EXPECT_NE(err.find("link 4000000000 5"), std::string::npos) << err;
}

/// A run's measured profile is itself deterministic across shard counts
/// (link transmit counters are result state, not engine state).
TEST(FlowStats, MeasuredProfileIdenticalAcrossShardCounts) {
  const auto profile_of = [](std::uint32_t shards) {
    backbone::ScenarioError err;
    auto scenario = backbone::Scenario::parse(kScenario, &err);
    EXPECT_TRUE(scenario.has_value()) << err.message;
    scenario->set_shards(shards);
    const std::string dir = ::testing::TempDir() + "flowprof_" +
                            std::to_string(shards) + "_" +
                            std::to_string(::getpid());
    scenario->set_obs_dir(dir);
    std::ostringstream out;
    EXPECT_TRUE(scenario->run(out));
    std::string text = slurp(dir + "/flow_profile.txt");
    std::filesystem::remove_all(dir);
    return text;
  };
  const std::string p1 = profile_of(1);
  EXPECT_FALSE(p1.empty());
  EXPECT_EQ(p1.substr(0, 14), "flowprofile v1");
  EXPECT_EQ(p1, profile_of(2));
  EXPECT_EQ(p1, profile_of(4));
}

// ---------------------------------------------------------------------------
// Chrome-trace zero-epoch regression (satellite: write_chrome_trace used to
// emit pid-2 process/thread metadata even when the profiler retained no
// epoch slots, painting an empty "engine" process with orphaned lanes)

TEST(FlowStats, ChromeTraceSkipsEngineLanesWithoutEpochSlots) {
  obs::FlightRecorder rec(nullptr);  // permanently disabled, no events
  obs::SyncProfiler sync(2);         // profiled shape, zero epochs recorded
  std::ostringstream out;
  obs::write_chrome_trace(rec, out, {}, &sync);
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"pid\":2"), std::string::npos);
  EXPECT_EQ(json.find("engine"), std::string::npos);
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

}  // namespace
}  // namespace mvpn
