// Scenario runner: execute a text scenario file (see
// src/backbone/scenario_config.hpp for the format) and print the SLA
// report. With no scenario argument, runs the built-in branch-office demo
// below.
//
//   ./build/examples/run_scenario [options] [examples/scenarios/branch_office.scn]
//
// Observability options (any of them arms the flight recorder):
//   --trace FILE        Chrome trace_event JSON (load in about://tracing)
//   --events FILE       raw trace events, one JSON object per line
//   --metrics FILE      periodic metrics-snapshot series (JSON array)
//   --snapshot-period S metrics capture period in seconds (default 0.5)
//   --obs DIR           shorthand: DIR/trace.json + DIR/events.jsonl +
//                       DIR/metrics.json + DIR/spans.json + DIR/latency.json
//                       + DIR/sync.json + DIR/flow.jsonl (DIR is created
//                       if missing)
//
// Engine sync telemetry (independent of the flight recorder):
//   --sync-report       print the epoch-level sync profile (per-shard busy
//                       fraction, barrier-wait percentiles, critical-shard
//                       attribution); serial runs print a one-lane summary
//   --sync-json FILE    write the sync report as JSON; with --trace, the
//                       Chrome trace grows per-worker epoch lanes
//
// Latency-anatomy options (arm the per-hop delay decomposition):
//   --latency-report    print per-hop / per-class delay decomposition tables
//   --latency-json FILE write the full decomposition as JSON
//   --spans FILE        Chrome trace with per-hop duration spans (needs the
//                       flight recorder, i.e. counts as an obs option)
//
// Per-flow telemetry (independent of the flight recorder):
//   --flow-records FILE     IPFIX-style flow records, one JSON per line
//   --flow-records-bin FILE same records, compact binary ("MVFR" framing)
//   --flow-report           print the per-VPN x per-class conformance
//                           rollup (offered vs delivered vs delay)
//   --flow-profile FILE     write measured per-node/per-link flow weights
//                           (input for --partition-profile on a later run)
//
// Engine options:
//   --shards N          partition the topology into N shards and run the
//                       traffic phase on the parallel engine (default 1:
//                       the one-lane runtime, no worker threads; overrides
//                       the scenario's `run shards=`)
//   --partition-profile FILE  flow-weighted partitioning: balance shards
//                       by the measured per-node flow weights in FILE (a
//                       --flow-profile output) instead of node counts
//   --no-flowcache      disable the per-router flow fastpath caches (slow
//                       path only; overrides the scenario's `run
//                       flowcache=`). Results are identical either way —
//                       use for A/B verification and benchmarking.
//   --verbose           print partition diagnostics (cut size, per-shard
//                       node/CE/flow balance, lookahead) to stderr
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
#include <cstring>
#include <filesystem>
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
               "usage: %s [--trace FILE] [--events FILE] [--metrics FILE]\n"
               "          [--snapshot-period S] [--obs DIR] [--spans FILE]\n"
               "          [--latency-report] [--latency-json FILE]\n"
               "          [--sync-report] [--sync-json FILE]\n"
               "          [--flow-records FILE] [--flow-records-bin FILE]\n"
               "          [--flow-report] [--flow-profile FILE]\n"
               "          [--partition-profile FILE]\n"
               "          [--shards N] [--no-flowcache] [--control-metrics]\n"
               "          [--verbose]\n"
               "          [--topogen \"p=.. pe=.. ce=.. flows=..\"]\n"
               "          [scenario.scn]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mvpn::backbone::ObsOptions obs;
  std::string scenario_path;
  std::string topogen_spec;
  std::string partition_profile_path;
  std::size_t shards = 0;    // 0: use the scenario file's setting
  int flowcache = -1;        // -1: use the scenario file's setting
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--trace") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.chrome_trace_path = v;
    } else if (std::strcmp(argv[i], "--events") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.events_jsonl_path = v;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.metrics_json_path = v;
      // CLI metrics runs want the whole picture, including the engine/*
      // gauges (naturally engine-configuration-dependent, which is why
      // programmatic byte-identity comparisons leave this off).
      obs.engine_metrics = true;
    } else if (std::strcmp(argv[i], "--snapshot-period") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      if (!mvpn::backbone::to_double(v, obs.snapshot_period_s) ||
          obs.snapshot_period_s <= 0) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.spans_trace_path = v;
    } else if (std::strcmp(argv[i], "--latency-report") == 0) {
      obs.latency_report = true;
    } else if (std::strcmp(argv[i], "--latency-json") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.latency_json_path = v;
    } else if (std::strcmp(argv[i], "--sync-report") == 0) {
      obs.sync_report = true;
    } else if (std::strcmp(argv[i], "--sync-json") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.sync_json_path = v;
    } else if (std::strcmp(argv[i], "--flow-records") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.flow_records_path = v;
    } else if (std::strcmp(argv[i], "--flow-records-bin") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.flow_records_bin_path = v;
    } else if (std::strcmp(argv[i], "--flow-report") == 0) {
      obs.flow_report = true;
    } else if (std::strcmp(argv[i], "--flow-profile") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      obs.flow_profile_path = v;
    } else if (std::strcmp(argv[i], "--partition-profile") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      partition_profile_path = v;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      if (!mvpn::backbone::to_size(v, shards) || shards == 0 ||
          shards > 64) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--no-flowcache") == 0) {
      flowcache = 0;
    } else if (std::strcmp(argv[i], "--control-metrics") == 0) {
      obs.control_metrics = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--topogen") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      topogen_spec = v;
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      std::error_code ec;
      std::filesystem::create_directories(v, ec);
      const std::string dir = v;
      obs.chrome_trace_path = dir + "/trace.json";
      obs.events_jsonl_path = dir + "/events.jsonl";
      obs.metrics_json_path = dir + "/metrics.json";
      obs.engine_metrics = true;
      obs.spans_trace_path = dir + "/spans.json";
      obs.latency_json_path = dir + "/latency.json";
      obs.sync_json_path = dir + "/sync.json";
      obs.flow_records_path = dir + "/flow.jsonl";
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else if (scenario_path.empty()) {
      scenario_path = argv[i];
    } else {
      return usage(argv[0]);
    }
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
  if (!scenario_path.empty()) {
    return mvpn::backbone::run_scenario_file(
        scenario_path, std::cout, obs, static_cast<std::uint32_t>(shards),
        flowcache, verbose, std::move(partition_weights));
  }

  std::string text;
  if (!topogen_spec.empty()) {
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
    std::printf("parse error at line %zu: %s\n", error.line,
                error.message.c_str());
    return 2;
  }
  scenario->set_obs(obs);
  if (shards != 0) {
    scenario->set_shards(static_cast<std::uint32_t>(shards));
  }
  if (flowcache >= 0) scenario->set_flowcache(flowcache != 0);
  scenario->set_verbose(verbose);
  scenario->set_partition_weights(std::move(partition_weights));
  return scenario->run(std::cout) ? 0 : 1;
}
