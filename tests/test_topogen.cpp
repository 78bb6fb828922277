#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/partition.hpp"
#include "backbone/scenario_config.hpp"
#include "backbone/topogen.hpp"
#include "golden.hpp"
#include "routing/bgp.hpp"

namespace mvpn {
namespace {

backbone::TopogenParams small_params() {
  backbone::TopogenParams p;
  p.p = 8;
  p.pe = 16;
  p.ce = 2;
  p.pod = 4;
  p.flows = 256;
  p.seed = 5;
  return p;
}

// --- Spec parsing ---------------------------------------------------------

TEST(TopogenSpec, ParsesKeyValuePairs) {
  backbone::TopogenParams p;
  std::string err;
  ASSERT_TRUE(backbone::parse_topogen_spec(
      "p=32 pe=128 ce=4 pod=16 flows=50000 rate=64e3 seed=9", p, &err));
  EXPECT_EQ(p.p, 32U);
  EXPECT_EQ(p.pe, 128U);
  EXPECT_EQ(p.ce, 4U);
  EXPECT_EQ(p.pod, 16U);
  EXPECT_EQ(p.flows, 50000U);
  EXPECT_DOUBLE_EQ(p.rate_bps, 64e3);
  EXPECT_EQ(p.seed, 9U);
}

TEST(TopogenSpec, RejectsUnknownKeyAndNamesIt) {
  backbone::TopogenParams p;
  std::string err;
  EXPECT_FALSE(backbone::parse_topogen_spec("p=8 bogus=1", p, &err));
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(TopogenSpec, RejectsShapesWithoutTwoSitesPerPod) {
  backbone::TopogenParams p = small_params();
  p.pod = 1;
  p.ce = 1;  // one site per pod: no intra-pod flow possible
  EXPECT_THROW(backbone::generate_plan(p), std::invalid_argument);
}

// --- Plan determinism -----------------------------------------------------

TEST(TopogenPlan, SameParamsSamePlanHash) {
  const backbone::GeneratedPlan a = backbone::generate_plan(small_params());
  const backbone::GeneratedPlan b = backbone::generate_plan(small_params());
  EXPECT_EQ(a.hash(), b.hash());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].from, b.flows[i].from);
    EXPECT_EQ(a.flows[i].to, b.flows[i].to);
    EXPECT_EQ(a.flows[i].kind, b.flows[i].kind);
    EXPECT_DOUBLE_EQ(a.flows[i].rate_bps, b.flows[i].rate_bps);
    EXPECT_DOUBLE_EQ(a.flows[i].start_s, b.flows[i].start_s);
  }
}

TEST(TopogenPlan, DifferentSeedDifferentPlanHash) {
  backbone::TopogenParams other = small_params();
  other.seed = 6;
  EXPECT_NE(backbone::generate_plan(small_params()).hash(),
            backbone::generate_plan(other).hash());
}

TEST(TopogenPlan, ShapeMatchesParams) {
  const backbone::TopogenParams p = small_params();
  const backbone::GeneratedPlan plan = backbone::generate_plan(p);
  EXPECT_EQ(plan.backbone.p_count, p.p);
  EXPECT_EQ(plan.backbone.pe_count, p.pe);
  EXPECT_EQ(plan.backbone.core_chord_stride, p.p / 2);  // chorded ring
  EXPECT_EQ(plan.vpns.size(), (p.pe + p.pod - 1) / p.pod);
  EXPECT_EQ(plan.sites.size(), p.pe * p.ce);
  EXPECT_EQ(plan.flows.size(), p.flows);

  // Site prefixes are unique /24s; each site hangs off its declared PE.
  std::set<std::uint32_t> prefixes;
  for (const backbone::PlanSite& s : plan.sites) {
    EXPECT_TRUE(prefixes.insert(s.prefix.address().value()).second);
    EXPECT_EQ(s.prefix.length(), 24);
    EXPECT_LT(s.pe, p.pe);
  }
}

TEST(TopogenPlan, FlowsStayIntraPodAndAreDesynchronized) {
  const backbone::TopogenParams p = small_params();
  const backbone::GeneratedPlan plan = backbone::generate_plan(p);
  std::set<std::pair<double, double>> phases;
  for (const backbone::PlanFlow& f : plan.flows) {
    EXPECT_NE(f.from, f.to);
    // Intra-pod: both endpoints belong to the same VPN.
    EXPECT_EQ(plan.sites[f.from].vpn, plan.sites[f.to].vpn);
    // De-synchronization: rate within +-10% of nominal, start within the
    // first 100 ms, and no two flows share the exact (rate, start) phase —
    // lockstep emission is what breaks serial-vs-sharded byte identity.
    EXPECT_GE(f.rate_bps, p.rate_bps * 0.9);
    EXPECT_LE(f.rate_bps, p.rate_bps * 1.1);
    EXPECT_GE(f.start_s, 0.0);
    EXPECT_LT(f.start_s, 0.1);
    EXPECT_TRUE(phases.insert({f.rate_bps, f.start_s}).second);
  }
}

// --- VRF/RT allocation across pods ----------------------------------------

TEST(TopogenBackbone, VrfRdAndRtUniqueAcrossPods) {
  const backbone::GeneratedPlan plan = backbone::generate_plan(small_params());
  backbone::MplsBackbone bb(plan.backbone);
  std::vector<vpn::VpnId> ids;
  for (const std::string& name : plan.vpns) {
    ids.push_back(bb.service.create_vpn(name));
  }
  std::set<routing::RouteDistinguisher> rds;
  std::set<routing::RouteTarget> rts;
  for (vpn::VpnId id : ids) {
    EXPECT_TRUE(rds.insert(bb.service.rd_of(id)).second)
        << "duplicate RD " << bb.service.rd_of(id).to_string();
    EXPECT_TRUE(rts.insert(bb.service.rt_of(id)).second)
        << "duplicate RT " << bb.service.rt_of(id).to_string();
  }
}

// --- Partitioner on generated graphs --------------------------------------

TEST(TopogenPartition, GeneratedGraphSplitsBalancedWithCoreCut) {
  const backbone::GeneratedPlan plan = backbone::generate_plan(small_params());
  backbone::MplsBackbone bb(plan.backbone);
  std::vector<vpn::VpnId> ids;
  for (const std::string& name : plan.vpns) {
    ids.push_back(bb.service.create_vpn(name));
  }
  for (const backbone::PlanSite& s : plan.sites) {
    bb.add_site(ids[s.vpn], s.pe, s.prefix);
  }

  const backbone::ShardPlan shard = backbone::compute_shard_plan(bb.topo, 4);
  ASSERT_TRUE(shard.parallel());
  EXPECT_EQ(shard.shard_count, 4U);
  EXPECT_GT(shard.lookahead, 0);

  std::vector<std::size_t> sizes(shard.shard_count, 0);
  for (std::uint32_t s : shard.node_shard) ++sizes[s];
  // Pod-preserving partitioning trades perfect balance for cut size, so
  // allow 25% headroom over the ideal share.
  const std::size_t ideal = (bb.topo.node_count() + 3) / 4;
  const std::size_t cap = ideal + (ideal + 3) / 4;
  for (std::size_t sz : sizes) {
    EXPECT_GT(sz, 0U);
    EXPECT_LE(sz, cap);
  }
  // Every cut link really crosses shards.
  for (net::LinkId id : shard.cut_links) {
    EXPECT_NE(shard.node_shard[bb.topo.link(id).end_a().node],
              shard.node_shard[bb.topo.link(id).end_b().node]);
  }
}

// --- Scenario directive ---------------------------------------------------

TEST(TopogenScenario, DirectiveExpandsIntoRunnableScenario) {
  backbone::ScenarioError err;
  auto sc = backbone::Scenario::parse(
      "topology generated p=4 pe=4 ce=2 pod=2 flows=16 seed=3\nrun for=0.2\n",
      &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  EXPECT_EQ(sc->flow_count(), 16U);
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  EXPECT_NE(out.str().find("delivered="), std::string::npos);
}

TEST(TopogenScenario, DirectiveRefusesMixedDeclarations) {
  backbone::ScenarioError err;
  EXPECT_FALSE(backbone::Scenario::parse("topology generated p=4 pe=4\n"
                                         "backbone p=2 pe=2\nrun for=1\n",
                                         &err)
                   .has_value());
  EXPECT_FALSE(backbone::Scenario::parse("topology generated p=4 pe=4\n"
                                         "vpn corp\nrun for=1\n",
                                         &err)
                   .has_value());
}

// --- Byte identity: generated scenario, serial vs sharded vs flowcache ----

constexpr const char* kGeneratedScenario =
    "topology generated p=8 pe=16 ce=2 pod=4 flows=192 rate=48e3 seed=5\n"
    "run for=1\n";

struct Outputs {
  std::string report;
  std::string raw_metrics_json;  ///< metrics.json as written
  std::string metrics_json;      ///< the same without fastpath gauges
  std::string latency_json;
  bool ok = false;
};

/// One report line legitimately differs between engine variants: the
/// converged banner names the engine (shard count, window/handoff stats).
/// Everything else (SLA table, delivered/leaks) must match byte-for-byte.
std::string strip_engine_lines(const std::string& text) {
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

Outputs run_generated(const char* text, std::uint32_t shards, bool flowcache) {
  backbone::ScenarioError err;
  auto sc = backbone::Scenario::parse(text, &err);
  EXPECT_TRUE(sc.has_value()) << "line " << err.line << ": " << err.message;
  Outputs out;
  if (!sc) return out;

  const std::string dir = ::testing::TempDir() + "/topogen_obs_" +
                          std::to_string(shards) +
                          (flowcache ? "_fc" : "_nofc");
  sc->set_obs_dir(dir);
  sc->set_shards(shards);
  sc->set_flowcache(flowcache);

  std::ostringstream report;
  out.ok = sc->run(report);
  out.report = strip_engine_lines(report.str());
  out.raw_metrics_json = golden::slurp(dir + "/metrics.json");
  // The per-router fastpath gauges are cache diagnostics, not simulation
  // results: hit/miss/hit-rate counts and table sizes track the cache
  // itself, so the flowcache-off variants would trivially differ from the
  // cache-on serial baseline. Every remaining gauge must match exactly.
  out.metrics_json =
      golden::strip_node_gauges(out.raw_metrics_json, "/fastpath/");
  out.latency_json = golden::slurp(dir + "/latency.json");
  EXPECT_FALSE(out.metrics_json.empty());
  EXPECT_FALSE(out.latency_json.empty());
  return out;
}

TEST(TopogenDeterminism, ShardsAndFlowcacheMatchSerialByteForByte) {
  const Outputs serial = run_generated(kGeneratedScenario, 1, true);
  ASSERT_TRUE(serial.ok);
  struct Variant {
    std::uint32_t shards;
    bool flowcache;
  };
  for (const Variant v : {Variant{2, true}, Variant{4, true},
                          Variant{1, false}, Variant{4, false}}) {
    SCOPED_TRACE("shards=" + std::to_string(v.shards) +
                 " flowcache=" + (v.flowcache ? "on" : "off"));
    const Outputs par = run_generated(kGeneratedScenario, v.shards, v.flowcache);
    ASSERT_TRUE(par.ok);
    EXPECT_EQ(par.report, serial.report);
    EXPECT_EQ(par.metrics_json, serial.metrics_json);
    EXPECT_EQ(par.latency_json, serial.latency_json);
  }
}

// --- Flow caches past their cap ------------------------------------------

/// 6000 flows over four single-site PEs: every CE originates about 1500
/// flows (all start inside the first 0.1 s) and receives as many, more
/// than its 1024-slot ingress and forward caps, but they share a few dozen
/// 5-tuples, so keyed tables stay small.
constexpr const char* kCappedScenario =
    "topology generated p=4 pe=4 ce=1 pod=4 flows=6000 seed=5\n"
    "run for=0.15\n";

/// Final `node/NAME/router/fastpath/slots` value per router NAME.
std::map<std::string, double> final_slots(const std::string& json) {
  const std::string tail = "/router/fastpath/slots\":";
  std::map<std::string, double> out;
  for (std::size_t at = json.find(tail); at != std::string::npos;
       at = json.find(tail, at + 1)) {
    const std::size_t name = json.rfind("\"node/", at) + 6;
    out[json.substr(name, at - name)] =
        std::stod(json.substr(at + tail.size(), 16));
  }
  return out;
}

TEST(TopogenDeterminism, CappedFlowCachesMatchSerialByteForByte) {
  const Outputs serial = run_generated(kCappedScenario, 1, true);
  ASSERT_TRUE(serial.ok);
  struct Variant {
    std::uint32_t shards;
    bool flowcache;
  };
  for (const Variant v :
       {Variant{2, true}, Variant{1, false}, Variant{2, false}}) {
    SCOPED_TRACE("shards=" + std::to_string(v.shards) +
                 " flowcache=" + (v.flowcache ? "on" : "off"));
    const Outputs par = run_generated(kCappedScenario, v.shards, v.flowcache);
    ASSERT_TRUE(par.ok);
    EXPECT_EQ(par.report, serial.report);
    EXPECT_EQ(par.metrics_json, serial.metrics_json);
    EXPECT_EQ(par.latency_json, serial.latency_json);
    if (v.flowcache) {
      // Cache state is per router, so its gauges match across shards too.
      EXPECT_EQ(par.raw_metrics_json, serial.raw_metrics_json);
    }
  }

  const std::map<std::string, double> slots =
      final_slots(serial.raw_metrics_json);
  ASSERT_EQ(slots.size(), 12U);
  for (const auto& [name, n] : slots) {
    SCOPED_TRACE(name);
    if (name.starts_with("CE")) {
      // A table holds one entry per distinct key, however many flows use
      // it. A CE's flows carry at most 12 distinct 5-tuples each way (3
      // remote sites x 4 ports). The ingress table sees the 12 it sends
      // and keeps its 16-slot start size, which one 16-slot window spans.
      // The forward table sees those 12 and the 12 it delivers: 24 keys
      // overflow the start size, and it doubles once, to 32.
      EXPECT_EQ(n, 16.0 + 32);
    } else if (name.starts_with("PE")) {
      // The forward table holds the same 24 keys as its CE's (12 into
      // the core, 12 delivered into the VRF): 32 slots. The transit
      // table switches a handful of labels and stays at 16.
      EXPECT_EQ(n, 32.0 + 16);
    } else {
      // A P router switches at most one label per PE loopback. Four keys
      // never fill a 16-slot window, so its one transit table stays at
      // the 16-slot start size.
      EXPECT_EQ(n, 16.0);
    }
  }
}

}  // namespace
}  // namespace mvpn
