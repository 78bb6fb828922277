// Scenario runner: execute a text scenario file (see
// src/backbone/scenario_config.hpp for the format) and print the SLA
// report. With no scenario argument, runs the built-in branch-office demo
// below.
//
//   ./build/examples/run_scenario [options] [examples/scenarios/branch_office.scn]
//
// Observability:
//   --obs DIR           arm every observability plane and write its
//                       artefacts into DIR (created if missing); stdout is
//                       the SLA report either way. Fixed file names:
//                         trace.json events.jsonl spans.json trace.txt
//                         metrics.json engine_metrics.json
//                         latency.json latency.txt  sync.json sync.txt
//                         flow.jsonl flow.bin flow.txt flow_profile.txt
//                         partition.txt
//                       (Scenario::set_obs_dir in
//                       src/backbone/scenario_config.hpp says what each
//                       holds). An unwritable DIR fails before the run.
//
// Engine options:
//   --shards N          partition the topology into N shards and run the
//                       traffic phase on the parallel engine (default 1:
//                       the one-lane runtime, no extra thread; overrides
//                       the scenario's `run shards=`)
//   --partition-profile FILE  flow-weighted partitioning: balance shards
//                       by the measured per-node flow weights in FILE (a
//                       flow_profile.txt) instead of node counts
//   --no-flowcache      disable the per-router flow fastpath caches (slow
//                       path only; overrides the scenario's `run
//                       flowcache=`). Results are identical either way —
//                       use for A/B verification and benchmarking.
//
// Generated topologies (instead of a scenario file):
//   --topogen "SPEC"    run an ISP-scale generated topology; SPEC is the
//                       key=value list of the `topology generated` scenario
//                       directive (p= pe= ce= pod= flows= core_bw= edge_bw=
//                       rate= size= seed=), plus an optional for=SECONDS
//                       here (default 1). Example:
//                         --topogen "p=16 pe=64 ce=2 flows=20000" --shards 4

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "backbone/partition.hpp"
#include "backbone/scenario_config.hpp"
#include "backbone/topogen.hpp"

namespace {

constexpr const char* kDemo = R"(
# Branch-office demo: congested 4 Mb/s core, voice protected by the
# paper's CPE-classify -> mark -> EXP-schedule chain.
backbone p=2 pe=2 core_bw=4e6 edge_bw=20e6 seed=7 core_queue=wfq:8,3,1
vpn corp
site corp pe=0 prefix=10.1.0.0/16
site corp pe=1 prefix=10.2.0.0/16
classify site=0 dstport=16384-16484 class=EF
classify site=0 dstport=5004 class=AF21
flow cbr     vpn=corp from=0 to=1 rate=400e3 class=EF   port=16400 size=172
flow onoff   vpn=corp from=0 to=1 rate=2e6   class=AF21 port=5004  size=1172 on=0.3 off=0.2
flow poisson vpn=corp from=0 to=1 rate=4e6   class=BE   port=80    size=1472
run for=5
)";

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--obs DIR] [--shards N] [--no-flowcache]\n"
               "          [--partition-profile FILE]\n"
               "          [--topogen \"p=.. pe=.. ce=.. flows=..\"]\n"
               "          [scenario.scn]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string obs_dir;
  std::string scenario_path;
  std::string topogen_spec;
  std::string partition_profile_path;
  std::size_t shards = 0;  // 0: use the scenario's setting
  bool no_flowcache = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Read a flag's value into `v`; false when it is missing.
    auto value = [&](std::string& v) {
      if (i + 1 >= argc) return false;
      v = argv[++i];
      return true;
    };
    bool ok = true;
    if (arg == "--obs") {
      ok = value(obs_dir);
    } else if (arg == "--partition-profile") {
      ok = value(partition_profile_path);
    } else if (arg == "--topogen") {
      ok = value(topogen_spec);
    } else if (arg == "--shards") {
      std::string n;
      ok = value(n) && mvpn::backbone::to_size(n, shards) && shards != 0 &&
           shards <= 64;
    } else if (arg == "--no-flowcache") {
      no_flowcache = true;
    } else if (arg.starts_with("-") || !scenario_path.empty()) {
      ok = false;
    } else {
      scenario_path = arg;
    }
    if (!ok) return usage(argv[0]);
  }

  if (!scenario_path.empty() && !topogen_spec.empty()) {
    std::fprintf(stderr, "--topogen and a scenario file are exclusive\n");
    return usage(argv[0]);
  }
  std::vector<std::uint64_t> partition_weights;
  if (!partition_profile_path.empty()) {
    std::ifstream pf(partition_profile_path);
    if (!pf) {
      std::fprintf(stderr, "cannot open %s\n",
                   partition_profile_path.c_str());
      return 2;
    }
    mvpn::backbone::FlowProfile profile;
    std::string err;
    if (!mvpn::backbone::load_flow_profile(pf, &profile, &err)) {
      std::fprintf(stderr, "%s: %s\n", partition_profile_path.c_str(),
                   err.c_str());
      return 2;
    }
    partition_weights = std::move(profile.node_weight);
  }

  std::string text;
  if (!scenario_path.empty()) {
    std::ifstream in(scenario_path);
    if (!in) {
      std::printf("cannot open %s\n", scenario_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else if (!topogen_spec.empty()) {
    // Synthesize a two-line scenario from the spec; for= belongs on the
    // run line, everything else on the topology line.
    std::istringstream in(topogen_spec);
    std::string token, topo_keys, run_keys;
    while (in >> token) {
      (token.rfind("for=", 0) == 0 ? run_keys : topo_keys) += " " + token;
    }
    if (run_keys.empty()) run_keys = " for=1";
    text = "topology generated" + topo_keys + "\nrun" + run_keys + "\n";
  } else {
    std::printf("no scenario file given; running the built-in demo\n\n");
    text = kDemo;
  }
  mvpn::backbone::ScenarioError error;
  auto scenario = mvpn::backbone::Scenario::parse(text, &error);
  if (!scenario) {
    if (scenario_path.empty()) {
      std::printf("parse error at line %zu: %s\n", error.line,
                  error.message.c_str());
    } else {
      std::printf("%s:%zu: %s\n", scenario_path.c_str(), error.line,
                  error.message.c_str());
    }
    return 2;
  }
  scenario->set_obs_dir(obs_dir);
  if (shards != 0) {
    scenario->set_shards(static_cast<std::uint32_t>(shards));
  }
  if (no_flowcache) scenario->set_flowcache(false);
  scenario->set_partition_weights(std::move(partition_weights));
  return scenario->run(std::cout) ? 0 : 1;
}
