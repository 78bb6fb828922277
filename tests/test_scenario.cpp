#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "backbone/scenario_config.hpp"
#include "golden.hpp"

namespace mvpn::backbone {
namespace {

const char* kMinimal = R"(
backbone p=1 pe=2 seed=3
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
flow cbr vpn=corp from=0 to=1 rate=200e3
run for=1
)";

TEST(ScenarioParse, MinimalScenario) {
  ScenarioError err;
  auto sc = Scenario::parse(kMinimal, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  EXPECT_EQ(sc->vpn_count(), 1u);
  EXPECT_EQ(sc->site_count(), 2u);
  EXPECT_EQ(sc->flow_count(), 1u);
  EXPECT_DOUBLE_EQ(sc->run_seconds(), 1.0);
}

TEST(ScenarioParse, CommentsAndBlankLinesIgnored) {
  const std::string text = std::string("# leading comment\n\n") + kMinimal +
                           "# trailing comment\n";
  ScenarioError err;
  EXPECT_TRUE(Scenario::parse(text, &err).has_value()) << err.message;
}

TEST(ScenarioParse, AllDirectivesAccepted) {
  const char* text = R"(
backbone p=2 pe=2 core_bw=4e6 edge_bw=20e6 seed=7 bgp=rr rr=2 core_queue=drr:4,2,1
vpn corp
vpn partner
extranet corp partner
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
site partner pe=1 prefix=192.168.0.0/16
classify site=0 dstport=16384-16484 class=EF
classify site=0 dstport=5004 class=AF21
police site=0 class=EF cir=62500 cbs=4000 ebs=4000
shape site=0 class=AF11 rate=125000 burst=3000
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow poisson vpn=corp from=0 to=1 rate=1e6 size=1472
flow onoff vpn=corp from=0 to=1 rate=2e6 on=0.3 off=0.2 class=AF21
run for=2
)";
  ScenarioError err;
  auto sc = Scenario::parse(text, &err);
  ASSERT_TRUE(sc.has_value()) << "line " << err.line << ": " << err.message;
  EXPECT_EQ(sc->vpn_count(), 2u);
  EXPECT_EQ(sc->site_count(), 3u);
  EXPECT_EQ(sc->flow_count(), 3u);
}

TEST(ScenarioParse, CoreQueueKindsAccepted) {
  for (const char* q : {"fifo", "prio", "wfq:8,3,1", "wfq:0.5", "drr:4,2,1",
                        "red", "red:10", "red:30,90,0.1", "red:0,1,1"}) {
    const std::string text =
        std::string("backbone p=1 pe=2 core_queue=") + q + "\nvpn v\n" +
        "site v pe=0 prefix=10.1.0.0/16\n";
    ScenarioError err;
    EXPECT_TRUE(Scenario::parse(text, &err).has_value())
        << q << ": " << err.message;
  }
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect_substr;
};

class ScenarioParseErrors : public ::testing::TestWithParam<BadCase> {};

// The *_over_cap cases below sit one over these caps.
static_assert(kMaxCoreRouters == 1024 && kMaxPeRouters == 2048 &&
              kMaxRouteReflectors == 64 && kMaxSitesPerPe == 64 &&
              kMaxGeneratedFlows == 2'000'000);

TEST_P(ScenarioParseErrors, ReportsUsefulError) {
  const BadCase& c = GetParam();
  ScenarioError err;
  auto sc = Scenario::parse(c.text, &err);
  EXPECT_FALSE(sc.has_value()) << c.name;
  EXPECT_NE(err.message.find(c.expect_substr), std::string::npos)
      << c.name << ": got '" << err.message << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioParseErrors,
    ::testing::Values(
        BadCase{"no_backbone", "vpn corp\nsite corp pe=0 prefix=10.0.0.0/8\n",
                "needs a backbone"},
        BadCase{"no_sites", "backbone p=1 pe=1\nvpn corp\n",
                "at least one site"},
        BadCase{"bad_prefix",
                "backbone p=1 pe=1\nvpn corp\nsite corp pe=0 prefix=10.0.0/8\n",
                "bad prefix"},
        BadCase{"unknown_vpn",
                "backbone p=1 pe=1\nvpn corp\nsite other pe=0 "
                "prefix=10.0.0.0/8\n",
                "unknown vpn"},
        BadCase{"pe_range",
                "backbone p=1 pe=1\nvpn corp\nsite corp pe=5 "
                "prefix=10.0.0.0/8\n",
                "out of range"},
        BadCase{"bad_class",
                "backbone p=1 pe=1\nvpn corp\nsite corp pe=0 "
                "prefix=10.0.0.0/8\nclassify site=0 class=PLATINUM\n",
                "unknown class"},
        BadCase{"unknown_directive",
                "backbone p=1 pe=1\nfrobnicate all the things\nvpn v\nsite v "
                "pe=0 prefix=10.0.0.0/8\n",
                "unknown directive"},
        BadCase{"bad_flow_kind",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\nflow warp vpn=v from=0 to=0\n",
                "unknown flow kind"},
        // Both TcpLite endpoints on one CE would share one dispatcher
        // entry, and the ACKs would never reach the sender.
        BadCase{"tcp_self_addressed",
                "backbone p=1 pe=2\nvpn v\nsite v pe=0 prefix=10.1.0.0/16\n"
                "site v pe=1 prefix=10.2.0.0/16\n"
                "flow tcp vpn=v from=1 to=1\n",
                "tcp flow needs from= != to="},
        BadCase{"flow_site_range",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\nflow cbr vpn=v from=0 to=9\n",
                "out of range"},
        BadCase{"bad_bgp",
                "backbone p=1 pe=1 bgp=mush\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\n",
                "mesh or rr"},
        BadCase{"police_missing_rates",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 "
                "prefix=10.0.0.0/8\npolice site=0 class=EF\n",
                "cir="},
        // Non-finite and out-of-range numbers fail instead of casting.
        BadCase{"p_inf", "backbone p=inf pe=1\n", "bad p="},
        BadCase{"pe_nan", "backbone p=1 pe=nan\n", "bad pe="},
        BadCase{"seed_huge", "backbone p=1 pe=1 seed=1e300\n", "bad seed="},
        BadCase{"rate_zero",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 rate=0\n",
                "bad rate="},
        BadCase{"rate_negative",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 rate=-2e5\n",
                "bad rate="},
        BadCase{"rate_garbage",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 rate=fast\n",
                "bad rate="},
        BadCase{"on_zero",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow onoff vpn=v from=0 to=0 on=0\n",
                "bad on="},
        BadCase{"off_garbage",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow onoff vpn=v from=0 to=0 off=later\n",
                "bad off="},
        BadCase{"size_too_big",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 size=65508\n",
                "bad size="},
        BadCase{"cir_garbage",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "police site=0 class=EF cir=lots cbs=4000 ebs=4000\n",
                "bad cir="},
        BadCase{"cbs_negative",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "police site=0 class=EF cir=62500 cbs=-1 ebs=4000\n",
                "bad cbs="},
        BadCase{"ebs_nan",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "police site=0 class=EF cir=62500 cbs=4000 ebs=nan\n",
                "bad ebs="},
        BadCase{"shape_rate_garbage",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "shape site=0 class=AF11 rate=x burst=3000\n",
                "bad rate="},
        BadCase{"shape_burst_zero",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "shape site=0 class=AF11 rate=125000 burst=0\n",
                "bad burst="},
        BadCase{"shape_missing_burst",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "shape site=0 class=AF11 rate=125000\n",
                "burst="},
        BadCase{"rate_below_floor",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 rate=1e-300\n",
                "bad rate="},
        BadCase{"rate_inf",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 rate=inf\n",
                "bad rate="},
        BadCase{"start_inf",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 start=inf\n",
                "bad start="},
        BadCase{"for_huge",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "run for=1e300\n",
                "bad for="},
        BadCase{"topogen_rate_zero", "topology generated rate=0\n",
                "bad topogen rate=0"},
        // Counts one over their caps fail before anything is sized from
        // them (flows=5e8 used to expand a multi-gigabyte plan in parse).
        BadCase{"p_over_cap", "backbone p=1025 pe=1\n", "bad p="},
        BadCase{"pe_over_cap", "backbone p=1 pe=2049\n", "bad pe="},
        BadCase{"rr_over_cap", "backbone p=1 pe=1 bgp=rr rr=65\n",
                "bad rr="},
        BadCase{"topogen_p_over_cap", "topology generated p=1025\n",
                "bad topogen p=1025"},
        BadCase{"topogen_pe_over_cap", "topology generated pe=2049\n",
                "bad topogen pe=2049"},
        BadCase{"topogen_ce_over_cap", "topology generated ce=65\n",
                "bad topogen ce=65"},
        BadCase{"topogen_pod_over_cap", "topology generated pod=2049\n",
                "bad topogen pod=2049"},
        BadCase{"topogen_flows_over_cap",
                "topology generated flows=2000001\n",
                "bad topogen flows=2000001"},
        // Link bandwidths feed transmission_time: zero or non-finite
        // values used to abort the run with a time in the past.
        BadCase{"core_bw_zero", "backbone p=1 pe=1 core_bw=0\n",
                "bad core_bw="},
        BadCase{"core_bw_negative", "backbone p=1 pe=1 core_bw=-1\n",
                "bad core_bw="},
        BadCase{"core_bw_nan", "backbone p=1 pe=1 core_bw=nan\n",
                "bad core_bw="},
        BadCase{"edge_bw_inf", "backbone p=1 pe=1 edge_bw=inf\n",
                "bad edge_bw="},
        BadCase{"topogen_core_bw_zero", "topology generated core_bw=0\n",
                "bad topogen core_bw=0"},
        BadCase{"topogen_core_bw_nan", "topology generated core_bw=nan\n",
                "bad topogen core_bw=nan"},
        BadCase{"topogen_edge_bw_negative",
                "topology generated edge_bw=-1\n",
                "bad topogen edge_bw=-1"},
        BadCase{"topogen_edge_bw_inf", "topology generated edge_bw=inf\n",
                "bad topogen edge_bw=inf"},
        // core_queue= is checked at parse time, naming the key.
        BadCase{"core_queue_unknown", "backbone p=1 pe=1 core_queue=bogus\n",
                "bad core_queue=bogus"},
        BadCase{"core_queue_prio_args", "backbone p=1 pe=1 core_queue=prio:3\n",
                "bad core_queue=prio:3"},
        BadCase{"core_queue_wfq_no_weights", "backbone p=1 pe=1 core_queue=wfq\n",
                "bad core_queue=wfq"},
        BadCase{"core_queue_wfq_zero",
                "backbone p=1 pe=1 core_queue=wfq:8,0,1\n",
                "bad core_queue=wfq:8,0,1"},
        BadCase{"core_queue_wfq_garbage",
                "backbone p=1 pe=1 core_queue=wfq:8,x,1\n",
                "bad core_queue=wfq:8,x,1"},
        BadCase{"core_queue_wfq_trailing_comma",
                "backbone p=1 pe=1 core_queue=wfq:8,3,\n",
                "bad core_queue=wfq:8,3,"},
        BadCase{"core_queue_drr_negative_nan",
                "backbone p=1 pe=1 core_queue=drr:-1,nan,1\n",
                "bad core_queue=drr:-1,nan,1"},
        BadCase{"core_queue_drr_fraction",
                "backbone p=1 pe=1 core_queue=drr:1.5,1\n",
                "bad core_queue=drr:1.5,1"},
        BadCase{"core_queue_drr_too_big",
                "backbone p=1 pe=1 core_queue=drr:4294967296\n",
                "bad core_queue=drr:4294967296"},
        BadCase{"core_queue_red_inverted",
                "backbone p=1 pe=1 core_queue=red:90,30,0.1\n",
                "bad core_queue=red:90,30,0.1"},
        BadCase{"core_queue_red_maxp",
                "backbone p=1 pe=1 core_queue=red:30,90,1.5\n",
                "bad core_queue=red:30,90,1.5"},
        BadCase{"core_queue_red_min_negative",
                "backbone p=1 pe=1 core_queue=red:-1\n",
                "bad core_queue=red:-1"},
        BadCase{"core_queue_red_too_many",
                "backbone p=1 pe=1 core_queue=red:1,2,0.5,4\n",
                "bad core_queue=red:1,2,0.5,4"},
        // Unknown keys are named, whether typos or retired switches.
        BadCase{"typo_key",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "flow cbr vpn=v from=0 to=0 rat=200e3\n",
                "unknown key rat="},
        BadCase{"site_pref_key",
                "backbone p=1 pe=1\nvpn v\n"
                "site v pe=0 prefix=10.0.0.0/8 pref=200\n",
                "unknown key pref="},
        BadCase{"retired_sources_key",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "run for=1 sources=legacy\n",
                "unknown key sources="},
        BadCase{"retired_updates_key",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "run for=1 updates=legacy\n",
                "unknown key updates="},
        BadCase{"retired_spf_key",
                "backbone p=1 pe=1\nvpn v\nsite v pe=0 prefix=10.0.0.0/8\n"
                "run for=1 spf=full\n",
                "unknown key spf="}));

TEST(ScenarioParse, CountCapsAreInclusive) {
  TopogenParams params;
  for (const auto& [key, cap] :
       {std::pair{"p", kMaxCoreRouters}, std::pair{"pe", kMaxPeRouters},
        std::pair{"ce", kMaxSitesPerPe}, std::pair{"pod", kMaxPeRouters},
        std::pair{"flows", kMaxGeneratedFlows}}) {
    EXPECT_TRUE(apply_topogen_param(params, key, std::to_string(cap))) << key;
    EXPECT_FALSE(apply_topogen_param(params, key, std::to_string(cap + 1)))
        << key;
  }
  // A rejected value leaves the parameter as it was.
  EXPECT_EQ(params.flows, kMaxGeneratedFlows);
  ScenarioError err;
  EXPECT_TRUE(Scenario::parse("backbone p=1 pe=1 bgp=rr rr=64\nvpn v\n"
                              "site v pe=0 prefix=10.0.0.0/8\n",
                              &err)
                  .has_value())
      << err.message;
}

TEST(ScenarioParse, ErrorCarriesLineNumber) {
  ScenarioError err;
  const char* text =
      "backbone p=1 pe=1\n"
      "vpn corp\n"
      "site corp pe=0 prefix=BOGUS\n";
  EXPECT_FALSE(Scenario::parse(text, &err).has_value());
  EXPECT_EQ(err.line, 3u);
}

TEST(ScenarioRun, EndToEndDeliversWithoutLeaks) {
  ScenarioError err;
  auto sc = Scenario::parse(kMinimal, &err);
  ASSERT_TRUE(sc.has_value());
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  const std::string text = out.str();
  EXPECT_NE(text.find("leaks=0"), std::string::npos);
  EXPECT_NE(text.find("BE"), std::string::npos);
  EXPECT_NE(text.find("converged in"), std::string::npos);
}

TEST(ScenarioRun, QosChainFromConfigProtectsEf) {
  const char* text = R"(
backbone p=1 pe=2 core_bw=2e6 edge_bw=20e6 seed=9 core_queue=prio
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16400 class=EF
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow poisson vpn=corp from=0 to=1 rate=2.5e6 class=BE port=80 size=1472
run for=3
)";
  ScenarioError err;
  auto sc = Scenario::parse(text, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  // EF row shows zero loss while BE shows substantial loss.
  const std::string report = out.str();
  const auto ef_pos = report.find("| EF");
  ASSERT_NE(ef_pos, std::string::npos);
  EXPECT_NE(report.substr(ef_pos).find("| 0.00"), std::string::npos);
}

TEST(ScenarioRun, TcpFlowFromConfigMovesData) {
  const char* text = R"(
backbone p=1 pe=2 core_bw=4e6 edge_bw=20e6 seed=13 core_queue=prio
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16400 class=EF
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow tcp vpn=corp from=0 to=1 class=BE port=80
run for=3
)";
  ScenarioError err;
  auto sc = Scenario::parse(text, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  const std::string report = out.str();
  // The elastic flow shows up with nonzero goodput.
  const auto pos = report.find("tcp flow 2: goodput ");
  ASSERT_NE(pos, std::string::npos) << report;
  EXPECT_EQ(report.find("goodput 0.00", pos), std::string::npos) << report;
}

/// A fresh obs directory for one run, under the temp dir.
std::string obs_dir(const std::string& key) {
  const std::string dir = ::testing::TempDir() + "/obs_" + key;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The JSON-lines and binary record streams a run wrote into `dir`,
/// against golden rows `<key>_jsonl` and `<key>_bin` of streams.txt.
void expect_golden_flow_records(const std::string& dir,
                                const std::string& key) {
  const std::string jsonl = golden::slurp(dir + "/flow.jsonl");
  const std::string bin = golden::slurp(dir + "/flow.bin");
  EXPECT_EQ(golden::stream_mismatch(key + "_jsonl", jsonl), "");
  EXPECT_EQ(golden::stream_mismatch(key + "_bin", bin), "");
}

/// The report after the first line, which names the engine.
std::string body(const std::string& report) {
  return report.substr(report.find('\n'));
}

TEST(ScenarioRun, GeneratedTopologyMatchesGolden) {
  // A small generated ISP: every flow kind, premarked classes, per-flow
  // start offsets. The report and the flow-record streams must match the
  // recorded ones byte for byte, serially and on four shards; the report
  // with every obs plane armed.
  const std::string golden_text = golden::read_text("topogen_small.txt");
  ASSERT_FALSE(golden_text.empty());
  for (std::uint32_t shards : {1U, 4U}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScenarioError err;
    auto sc = Scenario::parse(
        "topology generated p=4 pe=8 ce=2 flows=256 seed=5\nrun for=0.5\n",
        &err);
    ASSERT_TRUE(sc.has_value()) << err.message;
    const std::string key = "topogen_small_s" + std::to_string(shards);
    const std::string dir = obs_dir(key);
    sc->set_obs_dir(dir);
    sc->set_shards(shards);
    std::ostringstream out;
    EXPECT_TRUE(sc->run(out));
    EXPECT_EQ(body(out.str()), body(golden_text));
    if (shards == 1) {
      EXPECT_EQ(out.str(), golden_text);
    }
    expect_golden_flow_records(dir, key);
  }
}

TEST(ScenarioRun, ObsDirWritesEveryArtefact) {
  // One schema check per artefact of an obs directory, on a sharded run so
  // the engine lanes, the sync profile and the partition are populated.
  const std::string path =
      std::string(MVPN_SOURCE_DIR) + "/examples/scenarios/branch_office.scn";
  const std::string dir = obs_dir("every_artefact");
  std::ostringstream out;
  ASSERT_EQ(run_scenario_file(path, out, dir, 2), 0) << out.str();
  std::map<std::string, std::string> file;
  for (const char* name :
       {"trace.json", "events.jsonl", "spans.json", "trace.txt",
        "metrics.json", "engine_metrics.json", "latency.json", "latency.txt",
        "sync.json", "sync.txt", "flow.jsonl", "flow.bin", "flow.txt",
        "partition.txt"}) {
    file[name] = golden::slurp(dir + "/" + name);
    EXPECT_FALSE(file[name].empty()) << name;
  }
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            14);
  for (const auto& [name, text] : file) {
    if (name.ends_with(".json")) {
      EXPECT_TRUE(text.starts_with("{") || text.starts_with("[")) << name;
    }
    if (name.ends_with(".jsonl")) {
      std::istringstream lines(text);
      for (std::string line; std::getline(lines, line);) {
        EXPECT_TRUE(line.starts_with("{")) << name << ": " << line;
      }
    }
  }
  EXPECT_TRUE(file["flow.bin"].starts_with("MVFR"));
  EXPECT_TRUE(file["trace.txt"].starts_with("obs: "));
  EXPECT_TRUE(file["partition.txt"].starts_with("partition: "));
  EXPECT_NE(file["latency.txt"].find("latency anatomy"), std::string::npos);
  EXPECT_NE(file["sync.txt"].find("sync profile"), std::string::npos);
  EXPECT_NE(file["flow.txt"].find("flow conformance"), std::string::npos);
  EXPECT_NE(file["engine_metrics.json"].find("engine/shards"),
            std::string::npos);
  EXPECT_EQ(file["metrics.json"].find("engine/"), std::string::npos);
}

TEST(ScenarioRun, UnwritableObsDirFailsBeforeRunning) {
  // A directory under a regular file cannot be created, even by root: one
  // line naming the path, `false`, and no report.
  const std::string blocker = ::testing::TempDir() + "/obs_blocker";
  std::ofstream(blocker) << "not a directory\n";
  const std::string dir = blocker + "/obs";
  for (std::uint32_t shards : {1U, 2U}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScenarioError err;
    auto sc = Scenario::parse(kMinimal, &err);
    ASSERT_TRUE(sc.has_value()) << err.message;
    sc->set_obs_dir(dir);
    sc->set_shards(shards);
    std::ostringstream out;
    EXPECT_FALSE(sc->run(out));
    const std::string text = out.str();
    EXPECT_EQ(text.rfind("cannot create obs directory " + dir, 0), 0U)
        << text;
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
  }
  std::ostringstream out;
  EXPECT_EQ(run_scenario_file(std::string(MVPN_SOURCE_DIR) +
                                  "/examples/scenarios/branch_office.scn",
                              out, dir),
            1);
  EXPECT_EQ(out.str().find("delivered="), std::string::npos) << out.str();
}

/// Sum of the SLA table's `delivered` column in a run report: the third
/// cell of each `| class | sent | delivered | ...` data row.
std::uint64_t table_delivered(const std::string& report) {
  std::istringstream in(report);
  std::uint64_t sum = 0;
  for (std::string line; std::getline(in, line);) {
    std::istringstream row(line);
    std::string bar, cls, sent, delivered;
    if (row >> bar >> cls >> bar >> sent >> bar >> delivered && bar == "|" &&
        cls != "class") {
      sum += std::stoull(delivered);
    }
  }
  return sum;
}

TEST(ScenarioRun, MixedTcpRunAccountsPlainFlows) {
  // Regression: cbr+tcp runs used to leave the sink unbound as the default
  // dispatcher handler, silently discarding all accounting for the plain
  // flows, and later counted only strays in `delivered=`. Every measured
  // delivery goes through the lane sink: `delivered=` is the table's
  // delivered column, with zero leaks/unknowns.
  const char* text = R"(
backbone p=1 pe=2 core_bw=4e6 edge_bw=20e6 seed=13 core_queue=prio
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16400 class=EF
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow tcp vpn=corp from=0 to=1 class=BE port=80
run for=3
)";
  ScenarioError err;
  auto sc = Scenario::parse(text, &err);
  ASSERT_TRUE(sc.has_value()) << err.message;
  std::ostringstream out;
  EXPECT_TRUE(sc->run(out));
  const std::string report = out.str();
  const auto pos = report.find("\ndelivered=");
  ASSERT_NE(pos, std::string::npos) << report;
  const std::uint64_t table = table_delivered(report);
  EXPECT_GT(table, 0u) << report;
  EXPECT_EQ(std::stoull(report.substr(pos + 11)), table) << report;
  EXPECT_NE(report.find("leaks=0", pos), std::string::npos) << report;
  EXPECT_NE(report.find("unknown=0", pos), std::string::npos) << report;
}

TEST(ScenarioFile, MissingFileIsUsageError) {
  std::ostringstream out;
  EXPECT_EQ(run_scenario_file("/nonexistent/path.scn", out), 2);
  EXPECT_NE(out.str().find("cannot open"), std::string::npos);
}

TEST(ScenarioFile, ShippedDemoSceneMatchesGoldenSerialAndSharded) {
  // branch_office pins its flow records to golden digests too;
  // elastic_office runs TCP flows beside the open-loop kinds, with TCP
  // endpoints on different shards at four.
  for (const std::string name : {"branch_office", "elastic_office"}) {
    SCOPED_TRACE(name);
    const std::string path =
        std::string(MVPN_SOURCE_DIR) + "/examples/scenarios/" + name + ".scn";
    const std::string golden_text = golden::read_text(name + ".txt");
    ASSERT_FALSE(golden_text.empty());
    const bool golden_streams = name == "branch_office";
    // Every obs plane armed: stdout is still the golden report.
    std::ostringstream serial;
    const std::string serial_dir = obs_dir(name + "_s1");
    EXPECT_EQ(run_scenario_file(path, serial, serial_dir), 0) << serial.str();
    EXPECT_EQ(serial.str(), golden_text);
    if (golden_streams) {
      expect_golden_flow_records(serial_dir, "branch_office_s1");
    }
    // Four shards requested (the planner may use fewer): the first line
    // adds engine figures; the SLA table and the lines after it must not
    // move, nor must the flow records, the packet spans or the event log.
    std::ostringstream sharded;
    const std::string sharded_dir = obs_dir(name + "_s4");
    EXPECT_EQ(run_scenario_file(path, sharded, sharded_dir, 4), 0);
    EXPECT_EQ(body(sharded.str()), body(golden_text));
    EXPECT_NE(sharded.str().find(" shards (lookahead"), std::string::npos);
    if (golden_streams) {
      expect_golden_flow_records(sharded_dir, "branch_office_s4");
    }
    for (const char* file :
         {"/flow.jsonl", "/flow.bin", "/spans.json", "/events.jsonl"}) {
      EXPECT_EQ(golden::slurp(sharded_dir + file),
                golden::slurp(serial_dir + file))
          << file;
    }
  }
}

}  // namespace
}  // namespace mvpn::backbone
