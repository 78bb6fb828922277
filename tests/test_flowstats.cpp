#include <gtest/gtest.h>

#include <cstdint>
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
  FlowStatsTable t(&clock, 64);
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

/// A table sized at the minimum (2 slots) forces collisions: the displaced
/// incumbent folds into the spill map and nothing is ever lost.
TEST(FlowStats, SlotEvictionFoldsExactly) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock, 1);  // rounds up to the 2-slot minimum
  EXPECT_EQ(t.capacity(), 2u);
  constexpr std::uint32_t kFlows = 64;
  constexpr int kPackets = 10;
  for (int p = 0; p < kPackets; ++p) {
    for (std::uint32_t f = 1; f <= kFlows; ++f) {
      t.record_offered(key_of(f), f, 100, 1, 1, 0);
    }
  }
  EXPECT_GT(t.evictions(), 0u);
  EXPECT_GT(t.spilled(), 0u);

  std::uint64_t packets = 0, bytes = 0, flows = 0;
  t.drain([&](const FlowStatsTable::Slot& s) {
    ++flows;
    packets += s.offered_packets;
    bytes += s.offered_bytes;
  });
  EXPECT_EQ(flows, kFlows);
  EXPECT_EQ(packets, std::uint64_t{kFlows} * kPackets);
  EXPECT_EQ(bytes, std::uint64_t{kFlows} * kPackets * 100);
  EXPECT_EQ(t.spilled(), 0u);  // drain clears the spill map
}

/// drain() is an O(1) logical clear: a second round starts from zero, and
/// an undrained table keeps accumulating.
TEST(FlowStats, GenerationClearOnDrain) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock, 16);
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
  FlowStatsTable ta(&clock, 16), tb(&clock, 16);
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

TEST(FlowStats, ExporterCutsIdleActiveAndFinal) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock, 64);
  FlowExporter::Options opt;
  opt.idle_timeout = 10 * sim::kMillisecond;
  opt.active_timeout = 100 * sim::kMillisecond;
  FlowExporter ex(opt);

  // Flow 1 sends one packet then goes silent; flow 2 keeps sending.
  t.record_offered(key_of(1), 1, 100, 1, 1, 0);
  t.record_offered(key_of(2), 2, 100, 1, 1, 0);
  ex.merge_table(t);
  ex.scan(5 * sim::kMillisecond);
  EXPECT_TRUE(ex.records().empty());  // nothing expired yet
  EXPECT_EQ(ex.active_flows(), 2u);

  clock.run_until(20 * sim::kMillisecond);
  t.record_offered(key_of(2), 2, 100, 1, 1, 0);
  ex.merge_table(t);
  ex.scan(20 * sim::kMillisecond);  // flow 1 idle >= 10 ms, flow 2 refreshed
  ASSERT_EQ(ex.records().size(), 1u);
  EXPECT_EQ(ex.records()[0].acc.flow_id, 1u);
  EXPECT_EQ(ex.records()[0].cause, FlowExporter::Cause::kIdle);

  // Keep flow 2 refreshed past the active timeout: cut cause=active.
  for (int i = 3; i <= 12; ++i) {
    clock.run_until(i * 10 * sim::kMillisecond);
    t.record_offered(key_of(2), 2, 100, 1, 1, 0);
    ex.merge_table(t);
    ex.scan(clock.now());
  }
  ASSERT_GE(ex.records().size(), 2u);
  EXPECT_EQ(ex.records()[1].acc.flow_id, 2u);
  EXPECT_EQ(ex.records()[1].cause, FlowExporter::Cause::kActive);

  // Whatever is still open exports at flush with cause=final.
  clock.run_until(121 * 10 * sim::kMillisecond);
  t.record_offered(key_of(3), 3, 100, 1, 1, 0);
  ex.merge_table(t);
  ex.flush();
  EXPECT_EQ(ex.active_flows(), 0u);
  EXPECT_EQ(ex.records().back().cause, FlowExporter::Cause::kFinal);
  EXPECT_EQ(ex.records().back().acc.flow_id, 3u);
}

/// Eight distinct keys in an eight-slot table: some inevitably share a
/// home slot, and linear probing parks the newcomer nearby instead of
/// displacing the incumbent — the spill path stays untouched, and a
/// second round of touches finds every parked slot again.
TEST(FlowStats, ProbingKeepsCollidingKeysResident) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock, 8);
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t f = 1; f <= 8; ++f) {
      t.record_offered(key_of(f), f, 100, 1, 1, 0);
    }
  }
  EXPECT_EQ(t.evictions(), 0u);
  EXPECT_TRUE(t.spill_free());
  std::uint64_t flows = 0;
  t.drain([&](const FlowStatsTable::Slot& s) {
    ++flows;
    EXPECT_EQ(s.offered_packets, 2u);  // both rounds hit the same slot
  });
  EXPECT_EQ(flows, 8u);
}

/// The single-table resident fastpath of scan(tables)/flush(tables) must emit
/// a byte-identical record stream to the drain-and-merge path it
/// shortcuts — across idle cuts, active cuts, slot reclaim through a
/// tombstone, and shared-5-tuple folding.
TEST(FlowStats, ScanTableMatchesMergeScanByteForByte) {
  sim::Scheduler clock;
  FlowStatsTable fast(&clock, 64);
  FlowStatsTable slow(&clock, 64);
  FlowExporter::Options opt;
  opt.idle_timeout = 10 * sim::kMillisecond;
  opt.active_timeout = 100 * sim::kMillisecond;
  FlowExporter ex_fast(opt);
  FlowExporter ex_slow(opt);
  auto touch_both = [&](const Key& k, std::uint32_t f, std::uint32_t bytes) {
    fast.record_offered(k, f, bytes, 1, 1, 0);
    slow.record_offered(k, f, bytes, 1, 1, 0);
  };
  for (int ms = 0; ms <= 300; ms += 5) {
    clock.run_until(ms * sim::kMillisecond);
    if (ms == 0) touch_both(key_of(1), 1, 100);  // idle-cut early
    touch_both(key_of(2), 2, 100);  // active-cut, then reclaims its slot
    if (ms % 20 == 0) touch_both(key_of(3), 3, 50);
    // Two flow ids sharing a 5-tuple fold into one accumulation.
    touch_both(key_of(9), 7, 70);
    touch_both(key_of(9), 8, 70);
    if (ms > 0 && ms % 25 == 0) {
      ex_fast.scan({&fast}, clock.now());
      ex_slow.merge_table(slow);
      ex_slow.scan(clock.now());
    }
  }
  ex_fast.flush({&fast});
  ex_slow.merge_table(slow);
  ex_slow.flush();
  EXPECT_TRUE(fast.spill_free());  // the fastpath actually ran
  std::ostringstream a;
  std::ostringstream b;
  ex_fast.write_binary(a);
  ex_slow.write_binary(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_GT(ex_fast.records().size(), 3u);
}

/// A deliberately overloaded table (16 keys, 2 slots) spills immediately;
/// the single-table scan must then fall back to drain-and-merge for the rest of the
/// run and still match it byte for byte.
TEST(FlowStats, ScanTableFallbackOnSpillMatchesMergeScan) {
  sim::Scheduler clock;
  FlowStatsTable fast(&clock, 1);  // rounds up to the 2-slot minimum
  FlowStatsTable slow(&clock, 1);
  FlowExporter::Options opt;
  opt.idle_timeout = 10 * sim::kMillisecond;
  opt.active_timeout = 100 * sim::kMillisecond;
  FlowExporter ex_fast(opt);
  FlowExporter ex_slow(opt);
  for (int ms = 0; ms <= 120; ms += 5) {
    clock.run_until(ms * sim::kMillisecond);
    for (std::uint32_t f = 1; f <= 16; ++f) {
      fast.record_offered(key_of(f), f, 100, 1, 1, 0);
      slow.record_offered(key_of(f), f, 100, 1, 1, 0);
    }
    if (ms > 0 && ms % 25 == 0) {
      ex_fast.scan({&fast}, clock.now());
      ex_slow.merge_table(slow);
      ex_slow.scan(clock.now());
    }
  }
  EXPECT_GT(fast.evictions(), 0u);
  EXPECT_FALSE(fast.spill_free());
  ex_fast.flush({&fast});
  ex_slow.merge_table(slow);
  ex_slow.flush();
  std::ostringstream a;
  std::ostringstream b;
  ex_fast.write_binary(a);
  ex_slow.write_binary(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(FlowStats, RollupAggregatesPerVpnAndClass) {
  sim::Scheduler clock;
  FlowStatsTable t(&clock, 64);
  FlowExporter ex;
  t.record_offered(key_of(1), 1, 100, 1, /*vpn=*/1, /*phb=*/0);
  t.record_delivered(key_of(1), 1, 100, sim::kMillisecond);
  t.record_offered(key_of(2), 2, 100, 1, /*vpn=*/1, /*phb=*/5);
  t.record_offered(key_of(3), 3, 100, 1, /*vpn=*/2, /*phb=*/0);
  ex.merge_table(t);
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
